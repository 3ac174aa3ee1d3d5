package obs

import (
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("second resolution returned a different counter")
	}

	h := r.Histogram("h", []int64{10, 100})
	for _, v := range []int64{5, 10, 11, 100, 101, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("hist count = %d, want 6", got)
	}
	if got := h.Sum(); got != 5+10+11+100+101+1000 {
		t.Fatalf("hist sum = %d", got)
	}
	s := r.Snapshot()
	hs := s.Histograms["h"]
	want := []int64{2, 2, 2} // (<=10), (<=100), overflow
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	h := r.Histogram("h", DurationBounds)
	if c != nil || h != nil {
		t.Fatal("nil registry must resolve nil instruments")
	}
	// Every operation must be a safe no-op.
	c.Inc()
	c.Add(3)
	h.Observe(42)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestDisabledZeroAlloc is the "zero allocation disabled" half of the
// overhead contract: every disabled-path operation allocates nothing.
func TestDisabledZeroAlloc(t *testing.T) {
	var r *Registry
	var tr *Tracer
	c := r.Counter("c")
	h := r.Histogram("h", DurationBounds)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		h.Observe(7)
		end := tr.Span(0, 0, "s", "cat")
		end()
		tr.CompleteAt(0, 0, "x", "cat", 0, 1)
	}); n != 0 {
		t.Fatalf("disabled telemetry allocated %.1f allocs/op, want 0", n)
	}
}

// TestObsConcurrent hammers one registry from many goroutines; run
// under -race in CI.
func TestObsConcurrent(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("hist", CycleBounds)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
				end := tr.Span(0, w, "op", "test")
				end()
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("hist", CycleBounds).Count(); got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
	if tr.Len() != 8000 {
		t.Fatalf("tracer has %d events, want 8000", tr.Len())
	}
}
