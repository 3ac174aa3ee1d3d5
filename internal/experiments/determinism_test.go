package experiments

import (
	"testing"

	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/policy"
	"dcra/internal/sim"
	"dcra/internal/workload"
)

// determinismSuite builds a suite with tiny windows and a fixed worker
// count for the serial-vs-parallel comparison.
func determinismSuite(workers int) *Suite {
	s := NewSuite()
	s.Runner.Warmup, s.Runner.Measure = 5_000, 20_000
	s.Engine = sim.NewEngine(workers)
	return s
}

// determinismCells is a representative slice of the evaluation grid: every
// kind, two thread counts, two groups, and policies covering the plain,
// squashing and partitioning families.
func determinismCells() []campaign.Cell {
	cfg := config.Baseline()
	var cells []campaign.Cell
	for _, n := range []int{2, 4} {
		for _, kind := range workload.Kinds {
			for g := 1; g <= 2; g++ {
				w, err := workload.Get(n, kind, g)
				if err != nil {
					panic(err)
				}
				for _, pn := range []string{policy.NameICount, policy.NameFlushPP, policy.NameDCRA} {
					cells = append(cells, cellOf(cfg, w, pn))
				}
			}
		}
	}
	return cells
}

// TestSerialParallelDeterminism runs the same cells on a 1-worker engine
// (a plain serial loop) and on a parallel engine, and requires bit-identical
// metrics for every cell. Run under -race this also exercises the memo,
// engine and baseline-cache synchronisation.
func TestSerialParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	cells := determinismCells()

	serial := determinismSuite(1)
	parallel := determinismSuite(8)
	if err := serial.Prefetch(cells); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Prefetch(cells); err != nil {
		t.Fatal(err)
	}

	for _, c := range cells {
		rs, err := serial.RunCell(c)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := parallel.RunCell(c)
		if err != nil {
			t.Fatal(err)
		}
		id := c.WID + "/" + c.Pol
		if rs.Throughput != rp.Throughput {
			t.Errorf("%s: throughput %v (serial) != %v (parallel)", id, rs.Throughput, rp.Throughput)
		}
		if rs.Hmean != rp.Hmean {
			t.Errorf("%s: hmean %v (serial) != %v (parallel)", id, rs.Hmean, rp.Hmean)
		}
		if rs.WSpeedup != rp.WSpeedup {
			t.Errorf("%s: weighted speedup %v != %v", id, rs.WSpeedup, rp.WSpeedup)
		}
		if len(rs.IPCs) != len(rp.IPCs) {
			t.Fatalf("%s: IPC count %d != %d", id, len(rs.IPCs), len(rp.IPCs))
		}
		for i := range rs.IPCs {
			if rs.IPCs[i] != rp.IPCs[i] {
				t.Errorf("%s: thread %d IPC %v != %v", id, i, rs.IPCs[i], rp.IPCs[i])
			}
		}
		if rs.Stats.Cycles != rp.Stats.Cycles {
			t.Errorf("%s: cycles %d != %d", id, rs.Stats.Cycles, rp.Stats.Cycles)
		}
		for i := range rs.Stats.Threads {
			if rs.Stats.Threads[i] != rp.Stats.Threads[i] {
				t.Errorf("%s: thread %d stats differ between serial and parallel", id, i)
			}
		}
	}
}

// TestBaselineDeterminism checks that single-thread baselines computed
// under concurrent demand match a serial computation exactly.
func TestBaselineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	cfg := config.Baseline()
	names := []string{"gzip", "mcf", "art", "twolf", "swim", "gcc"}

	serial := determinismSuite(1)
	parallel := determinismSuite(8)
	got := make([]float64, len(names))
	parallel.Engine.RunLabeled(len(names), nil, func(i int) {
		v, err := parallel.Runner.SingleIPC(cfg, names[i])
		if err != nil {
			t.Error(err)
			return
		}
		got[i] = v
	})
	for i, name := range names {
		want, err := serial.Runner.SingleIPC(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("%s: baseline IPC %v (parallel) != %v (serial)", name, got[i], want)
		}
	}
}
