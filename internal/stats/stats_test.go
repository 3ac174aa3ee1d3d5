package stats

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestThreadDerivedMetrics(t *testing.T) {
	ts := ThreadStats{
		Committed: 1000, Branches: 100, BranchMispred: 5,
		L1DMisses: 50, L2DMisses: 10,
	}
	if got := ts.IPC(2000); got != 0.5 {
		t.Errorf("IPC = %v, want 0.5", got)
	}
	if got := ts.IPC(0); got != 0 {
		t.Errorf("IPC with zero cycles = %v", got)
	}
	if got := ts.L2MissRate(); got != 20 {
		t.Errorf("L2 miss rate = %v, want 20", got)
	}
	if got := ts.MispredictRate(); got != 5 {
		t.Errorf("mispredict rate = %v, want 5", got)
	}
	empty := ThreadStats{}
	if empty.L2MissRate() != 0 || empty.MispredictRate() != 0 {
		t.Error("zero-denominator rates must be 0")
	}
}

func TestAggregates(t *testing.T) {
	s := New(2)
	s.Cycles = 1000
	s.Threads[0].Committed = 500
	s.Threads[1].Committed = 1500
	s.Threads[0].Fetched = 700
	s.Threads[1].Fetched = 1800
	if got := s.TotalCommitted(); got != 2000 {
		t.Errorf("TotalCommitted = %d", got)
	}
	if got := s.Throughput(); got != 2.0 {
		t.Errorf("Throughput = %v", got)
	}
	if got := s.TotalFetched(); got != 2500 {
		t.Errorf("TotalFetched = %d", got)
	}
}

func TestAvgMLP(t *testing.T) {
	s := New(1)
	if s.AvgMLP() != 0 {
		t.Error("empty MLP must be 0")
	}
	s.MLPSum, s.MLPCycles = 30, 10
	if got := s.AvgMLP(); got != 3 {
		t.Errorf("AvgMLP = %v", got)
	}
}

func TestStringContainsPerThread(t *testing.T) {
	s := New(2)
	s.Cycles = 10
	s.Threads[1].Committed = 5
	out := s.String()
	if !strings.Contains(out, "t0:") || !strings.Contains(out, "t1:") {
		t.Fatalf("summary missing threads: %q", out)
	}
}

// TestAccumulateCarriesEveryCounter sets every counter of a two-thread
// Stats — each uint64 field of ThreadStats and Stats' own — to a distinct
// value, accumulates it twice into a zero Stats and checks that every
// counter doubled. A counter that ThreadStats.add or Accumulate leaves out,
// or adds into the wrong field, fails it; so does a field of a kind the
// test cannot count.
func TestAccumulateCarriesEveryCounter(t *testing.T) {
	o := New(2)
	next := uint64(1)
	var fill func(path string, v reflect.Value)
	fill = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Uint64:
			v.SetUint(next)
			next++
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Array, reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				fill(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		default:
			t.Fatalf("%s: field of kind %s is not a counter this test can check", path, v.Kind())
		}
	}
	fill("Stats", reflect.ValueOf(o).Elem())

	s := New(2)
	s.Accumulate(o)
	s.Accumulate(o)

	counters := 0
	var check func(path string, got, want reflect.Value)
	check = func(path string, got, want reflect.Value) {
		switch got.Kind() {
		case reflect.Uint64:
			counters++
			if got.Uint() != 2*want.Uint() {
				t.Errorf("%s = %d after accumulating %d twice, want %d", path, got.Uint(), want.Uint(), 2*want.Uint())
			}
		case reflect.Struct:
			for i := 0; i < got.NumField(); i++ {
				check(path+"."+got.Type().Field(i).Name, got.Field(i), want.Field(i))
			}
		case reflect.Array, reflect.Slice:
			for i := 0; i < got.Len(); i++ {
				check(fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i))
			}
		}
	}
	check("Stats", reflect.ValueOf(s).Elem(), reflect.ValueOf(o).Elem())
	if want := int(next - 1); counters != want {
		t.Fatalf("checked %d counters, filled %d", counters, want)
	}
}
