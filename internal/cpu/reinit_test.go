package cpu

import (
	"reflect"
	"testing"

	"dcra/internal/config"
	"dcra/internal/trace"
)

// reinitCell is one (cfg, profiles, seed) point of the reuse matrix.
type reinitCell struct {
	name     string
	cfg      config.Config
	profiles []string
	seed     uint64
}

func reinitCells() []reinitCell {
	base := config.Baseline()
	return []reinitCell{
		{"base-2t", base, []string{"gzip", "mcf"}, 1},
		{"memlat-2t", base.WithMemLatency(500, 25), []string{"gzip", "mcf"}, 1},
		{"base-2t-otherwork", base, []string{"art", "eon"}, 1},
		{"base-2t-otherseed", base, []string{"gzip", "mcf"}, 99},
		{"regs-2t", base.WithPhysRegs(288), []string{"swim", "twolf"}, 7},
		{"base-4t", base, []string{"gzip", "mcf", "art", "eon"}, 1},
	}
}

func runCell(t *testing.T, m *Machine, cycles uint64) *Machine {
	t.Helper()
	m.Run(cycles / 4)
	m.ResetStats()
	m.Run(cycles)
	return m
}

// TestReinitBitIdentical proves the reuse lifecycle is invisible to results:
// running a mixed sequence of cells on ONE machine via Reinit produces
// statistics deep-equal to running each cell on a freshly constructed
// machine. The sequence deliberately crosses shapes (2-thread vs 4-thread,
// different register-file sizes) to exercise both the in-place path and the
// reallocating one.
func TestReinitBitIdentical(t *testing.T) {
	const cycles = 20_000
	cells := reinitCells()

	fresh := make([]*Machine, len(cells))
	for i, c := range cells {
		profiles := make([]trace.Profile, len(c.profiles))
		for j, n := range c.profiles {
			profiles[j] = trace.MustProfile(n)
		}
		m, err := New(c.cfg, profiles, icountPolicy{}, c.seed)
		if err != nil {
			t.Fatalf("%s: New: %v", c.name, err)
		}
		fresh[i] = runCell(t, m, cycles)
	}

	// Dirty a machine with an unrelated run, then walk the whole cell
	// sequence on it via Reinit.
	reused := newTestMachine(t, "mcf", "art")
	reused.Run(3_000)
	for i, c := range cells {
		profiles := make([]trace.Profile, len(c.profiles))
		for j, n := range c.profiles {
			profiles[j] = trace.MustProfile(n)
		}
		if err := reused.Reinit(c.cfg, profiles, icountPolicy{}, c.seed); err != nil {
			t.Fatalf("%s: Reinit: %v", c.name, err)
		}
		runCell(t, reused, cycles)
		if !reflect.DeepEqual(reused.Stats(), fresh[i].Stats()) {
			t.Errorf("%s: reused machine diverged from fresh construction:\nfresh:  %vreused: %v",
				c.name, fresh[i].Stats(), reused.Stats())
		}
		if reused.Hierarchy().L1D.Accesses != fresh[i].Hierarchy().L1D.Accesses ||
			reused.Hierarchy().MemMisses != fresh[i].Hierarchy().MemMisses {
			t.Errorf("%s: hierarchy counters diverged", c.name)
		}
	}
}

// TestReinitShapeFallback checks the explicit contract: a shape change
// reallocates the machine rather than erroring, and the reallocated machine
// carries the new configuration.
func TestReinitShapeFallback(t *testing.T) {
	m := newTestMachine(t, "gzip", "mcf")
	oldShape := m.Shape()
	cfg := config.Baseline()
	cfg.ROBSize = 256 // shrinks the ROB ring: shape mismatch
	if ShapeOf(cfg, 2) == oldShape {
		t.Fatal("test config does not change the shape")
	}
	if err := m.Reinit(cfg, []trace.Profile{trace.MustProfile("gzip"), trace.MustProfile("mcf")}, icountPolicy{}, 1); err != nil {
		t.Fatalf("Reinit across shapes: %v", err)
	}
	if m.Config().ROBSize != 256 || m.Shape() == oldShape {
		t.Fatal("fallback did not adopt the new configuration")
	}
	m.Run(5_000)
	if m.Stats().TotalCommitted() == 0 {
		t.Fatal("rebuilt machine does not simulate")
	}
}

// TestReinitPreservesPriorStats pins the pooling contract that makes reuse
// safe for the experiment harness: statistics extracted from a run are never
// mutated by a later Reinit of the same machine.
func TestReinitPreservesPriorStats(t *testing.T) {
	m := newTestMachine(t, "gzip", "mcf")
	m.Run(5_000)
	st := m.Stats()
	committed := st.TotalCommitted()
	cycles := st.Cycles
	if err := m.Reinit(config.Baseline(), []trace.Profile{trace.MustProfile("art"), trace.MustProfile("eon")}, icountPolicy{}, 5); err != nil {
		t.Fatal(err)
	}
	m.Run(5_000)
	if st == m.Stats() {
		t.Fatal("Reinit must hand out a fresh Stats object")
	}
	if st.TotalCommitted() != committed || st.Cycles != cycles {
		t.Fatal("Reinit mutated statistics retained from an earlier run")
	}
}
