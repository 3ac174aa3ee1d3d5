package cpu

import (
	"reflect"
	"slices"
	"testing"
)

// fullWarm fast-forwards every thread of m by its budget with full
// functional warming: a warm tail at least as large as every budget warms
// the whole gap.
func fullWarm(m *Machine, budgets ...uint64) {
	m.FastForwardBudgetsTail(budgets, slices.Max(budgets))
}

// TestFastForwardBitReproducible checks a run interleaving detailed and
// fast-forward execution is a pure function of the seed and call sequence:
// two same-seed machines driven identically end bit-identical. (Note the
// round-robin interleave realigns per call, so e.g. one 5000-uop jump and
// two 2500-uop jumps are NOT interchangeable — only identical call
// sequences are.)
func TestFastForwardBitReproducible(t *testing.T) {
	run := func() *Machine {
		m := newTestMachine(t, "gzip", "mcf", "art", "eon")
		m.Run(2_000)
		fullWarm(m, 2_500, 2_500, 2_500, 2_500)
		m.Run(1_000)
		fullWarm(m, 1_000, 2_000, 3_000, 500)
		m.Run(2_000)
		return m
	}
	sa, sb := run().Stats(), run().Stats()
	if sa.Cycles != sb.Cycles || !reflect.DeepEqual(sa.Threads, sb.Threads) {
		t.Fatalf("same-seed fast-forward runs diverged:\n%s\nvs\n%s", sa, sb)
	}
	if sa.Threads[0].FastForwarded != 3_500 || sa.Threads[2].FastForwarded != 5_500 {
		t.Errorf("FastForwarded totals wrong: %+v", sa.Threads)
	}
}

// TestFastForwardMatchesDetailedStream checks fast-forward keeps threads on
// the canonical uop sequence: a machine that fast-forwards mid-run commits
// the same uop indices afterwards as one that ran detailed throughout.
func TestFastForwardMatchesDetailedStream(t *testing.T) {
	detailed := newTestMachine(t, "gzip", "mcf")
	detailed.Run(30_000)
	ff := newTestMachine(t, "gzip", "mcf")
	ff.Run(5_000)
	fullWarm(ff, 4_000, 4_000)
	ff.Run(5_000)
	sd, sf := detailed.Stats(), ff.Stats()
	for i := range sf.Threads {
		total := sf.Threads[i].Committed + sf.Threads[i].FastForwarded
		if sf.Threads[i].FastForwarded != 4_000 {
			t.Errorf("thread %d: FastForwarded = %d, want 4000", i, sf.Threads[i].FastForwarded)
		}
		// The fast-forwarded machine cannot have advanced past what an
		// uninterrupted detailed run would reach given the same seed: both
		// walk one canonical stream, so positions stay comparable.
		if total == 0 || sd.Threads[i].Committed == 0 {
			t.Fatalf("thread %d starved (ff total %d, detailed %d)", i, total, sd.Threads[i].Committed)
		}
	}
}

// TestFastForwardBudgetsSkipsParked checks parked threads neither advance
// nor count fast-forwarded uops.
func TestFastForwardBudgetsSkipsParked(t *testing.T) {
	m := newTestMachine(t, "gzip", "mcf")
	m.Run(1_000)
	m.ParkThread(1)
	fullWarm(m, 2_000, 2_000)
	st := m.Stats()
	if st.Threads[0].FastForwarded != 2_000 {
		t.Errorf("active thread FastForwarded = %d, want 2000", st.Threads[0].FastForwarded)
	}
	if st.Threads[1].FastForwarded != 0 {
		t.Errorf("parked thread FastForwarded = %d, want 0", st.Threads[1].FastForwarded)
	}
}
