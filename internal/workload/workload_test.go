package workload

import (
	"testing"

	"dcra/internal/trace"
)

func TestAllHas36Workloads(t *testing.T) {
	ws := All()
	if len(ws) != 36 {
		t.Fatalf("Table 4 has 36 workloads, got %d", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.ID()] {
			t.Errorf("duplicate workload id %s", w.ID())
		}
		seen[w.ID()] = true
		if len(w.Names) != w.Threads {
			t.Errorf("%s: %d names for %d threads", w.ID(), len(w.Names), w.Threads)
		}
	}
}

func TestAllBenchmarksResolve(t *testing.T) {
	for _, w := range All() {
		for _, n := range w.Names {
			if _, ok := trace.Benchmarks()[n]; !ok {
				t.Errorf("%s references unknown benchmark %q", w.ID(), n)
			}
		}
		if ps := w.Profiles(); len(ps) != w.Threads {
			t.Errorf("%s: Profiles() returned %d", w.ID(), len(ps))
		}
	}
}

// TestKindsConsistentWithTaxonomy verifies the paper's composition rule:
// ILP workloads contain only ILP threads, MEM only MEM threads, MIX a
// genuine mixture.
func TestKindsConsistentWithTaxonomy(t *testing.T) {
	for _, w := range All() {
		mem, ilp := 0, 0
		for _, n := range w.Names {
			if trace.MustProfile(n).Mem {
				mem++
			} else {
				ilp++
			}
		}
		switch w.Kind {
		case ILP:
			if mem != 0 {
				t.Errorf("%s (%v): ILP workload contains %d MEM threads", w.ID(), w.Names, mem)
			}
		case MEM:
			if ilp != 0 {
				t.Errorf("%s (%v): MEM workload contains %d ILP threads", w.ID(), w.Names, ilp)
			}
		case MIX:
			if mem == 0 || ilp == 0 {
				t.Errorf("%s (%v): MIX workload is not mixed (mem=%d ilp=%d)", w.ID(), w.Names, mem, ilp)
			}
		}
	}
}

func TestGetErrors(t *testing.T) {
	if _, err := Get(5, ILP, 1); err == nil {
		t.Error("5-thread workload should not exist")
	}
	if _, err := Get(2, Kind("XXX"), 1); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := Get(2, ILP, 0); err == nil {
		t.Error("group 0 should error")
	}
	if _, err := Get(2, ILP, 5); err == nil {
		t.Error("group 5 should error")
	}
}

func TestGroups(t *testing.T) {
	gs := Groups(3, MIX)
	if len(gs) != 4 {
		t.Fatalf("Groups returned %d, want 4", len(gs))
	}
	for i, g := range gs {
		if g.Group != i+1 || g.Threads != 3 || g.Kind != MIX {
			t.Errorf("group %d wrong: %+v", i, g)
		}
	}
}

func TestPaperSpotChecks(t *testing.T) {
	// Spot-check cells against the paper's Table 4 text.
	w, _ := Get(2, MEM, 1)
	if w.Names[0] != "mcf" || w.Names[1] != "twolf" {
		t.Errorf("MEM2 group1 = %v, want mcf+twolf", w.Names)
	}
	w, _ = Get(4, MIX, 2)
	if w.Names[0] != "mcf" || w.Names[3] != "gzip" {
		t.Errorf("MIX4 group2 = %v, want mcf,mesa,lucas,gzip", w.Names)
	}
	w, _ = Get(3, ILP, 4)
	if w.Names[0] != "mesa" || w.Names[2] != "fma3d" {
		t.Errorf("ILP3 group4 = %v, want mesa,vortex,fma3d", w.Names)
	}
}

func TestID(t *testing.T) {
	w, _ := Get(4, MEM, 3)
	if w.ID() != "MEM4.g3" {
		t.Fatalf("ID = %q", w.ID())
	}
}
