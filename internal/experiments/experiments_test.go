package experiments

import (
	"testing"

	"dcra/internal/config"
	"dcra/internal/cpu"
	"dcra/internal/policy"
	"dcra/internal/workload"
)

// TestTable1Golden: the regenerated Table 1 must match the paper exactly,
// including enumeration order.
func TestTable1Golden(t *testing.T) {
	rows := Table1()
	if len(rows) != 10 {
		t.Fatalf("Table 1 has 10 entries, got %d", len(rows))
	}
	wantOrder := [][2]int{
		{0, 1}, {1, 1}, {0, 2}, {2, 1}, {1, 2}, {0, 3}, {3, 1}, {2, 2}, {1, 3}, {0, 4},
	}
	for i, r := range rows {
		if r.Entry != i+1 {
			t.Errorf("row %d: entry %d", i, r.Entry)
		}
		if [2]int{r.FA, r.SA} != wantOrder[i] {
			t.Errorf("row %d: (FA,SA)=(%d,%d), want %v", i, r.FA, r.SA, wantOrder[i])
		}
		if want := PaperTable1[[2]int{r.FA, r.SA}]; r.Eslow != want {
			t.Errorf("row %d: E_slow=%d, paper says %d", i, r.Eslow, want)
		}
	}
}

// TestNewPolicyCoversAll checks that every policy the experiments name
// builds through the policy table under its own name.
func TestNewPolicyCoversAll(t *testing.T) {
	cfg := config.Baseline()
	for _, pn := range []PolicyName{PolICount, PolStall, PolFlush, PolFlushPP,
		PolDG, PolPDG, PolSRA, PolDCRA} {
		p, err := policy.New(string(pn), cfg)
		if err != nil {
			t.Errorf("%s: %v", pn, err)
		} else if p.Name() != string(pn) {
			t.Errorf("%s: built a policy named %q", pn, p.Name())
		}
	}
}

func TestSuiteMemoisation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	s := NewQuickSuite()
	s.Runner.Warmup, s.Runner.Measure = 5_000, 20_000
	w, _ := workload.Get(2, workload.ILP, 1)
	cfg := config.Baseline()
	a, err := s.run(cfg, w, PolICount)
	if err != nil {
		t.Fatal(err)
	}
	if s.memo.Len() == 0 {
		t.Fatal("suite did not memoise")
	}
	if got := s.Simulated(); got != 1 {
		t.Fatalf("Simulated() = %d after one cell, want 1", got)
	}
	b, err := s.run(cfg, w, PolICount)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput {
		t.Fatal("memoised result differs")
	}
}

// TestFigure2Monotone: more of a resource must never substantially hurt.
// Uses two benchmarks and a reduced runner to stay fast.
func TestFigure2Monotone(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	s := NewQuickSuite()
	s.Runner.Warmup, s.Runner.Measure = 10_000, 40_000
	res, err := Figure2(s, []string{"gzip", "swim"})
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range Figure2Resources {
		curve := res.PercentOfFull[rc]
		if len(curve) != len(Figure2Fractions) {
			t.Fatalf("%v: curve has %d points", rc, len(curve))
		}
		last := curve[len(curve)-1]
		if last < 0.90 || last > 1.10 {
			t.Errorf("%v: 100%% of resources gives %.3f of full speed, want ~1", rc, last)
		}
		// Check overall upward trend: first point must not exceed the last
		// by more than noise.
		if curve[0] > last*1.08 {
			t.Errorf("%v: restricting the resource sped things up: %.3f @12.5%% vs %.3f @100%%",
				rc, curve[0], last)
		}
	}
}

// TestTable5Shape: MIX 2-thread pairs spend the most time in split phases.
func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	s := NewQuickSuite()
	s.Runner.Warmup, s.Runner.Measure = 10_000, 40_000
	rows, err := Table5(s)
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[workload.Kind]Table5Row{}
	for _, r := range rows {
		byKind[r.Kind] = r
	}
	if byKind[workload.MEM].SlowSlow <= byKind[workload.ILP].SlowSlow {
		t.Errorf("MEM slow-slow (%.1f%%) should exceed ILP slow-slow (%.1f%%)",
			byKind[workload.MEM].SlowSlow, byKind[workload.ILP].SlowSlow)
	}
	if byKind[workload.ILP].FastFast <= byKind[workload.MEM].FastFast {
		t.Errorf("ILP fast-fast (%.1f%%) should exceed MEM fast-fast (%.1f%%)",
			byKind[workload.ILP].FastFast, byKind[workload.MEM].FastFast)
	}
	if byKind[workload.MIX].Mixed <= byKind[workload.MEM].Mixed {
		t.Errorf("MIX split-phase time (%.1f%%) should exceed MEM's (%.1f%%)",
			byKind[workload.MIX].Mixed, byKind[workload.MEM].Mixed)
	}
}

func TestTotalOf(t *testing.T) {
	cfg := config.Baseline()
	if totalOf(cfg, cpu.RIntIQ) != cfg.IntQueue {
		t.Error("intIQ total wrong")
	}
	if totalOf(cfg, cpu.RIntRegs) != cfg.RenameRegs(1) {
		t.Error("intRegs total wrong")
	}
	if totalOf(cfg, cpu.RROB) != cfg.ROBSize {
		t.Error("rob total wrong")
	}
}
