package cpu

import (
	"testing"

	"dcra/internal/config"
	"dcra/internal/trace"
)

// icountPolicy is a minimal in-package policy for tests.
type icountPolicy struct{}

func (icountPolicy) Name() string              { return "ICOUNT" }
func (icountPolicy) Tick(*Machine)             {}
func (icountPolicy) Rank(m *Machine, ts []int) { RankByICount(m, ts) }
func (icountPolicy) Gate(*Machine, int) bool   { return false }

func newTestMachine(t testing.TB, names ...string) *Machine {
	t.Helper()
	profiles := make([]trace.Profile, len(names))
	for i, n := range names {
		profiles[i] = trace.MustProfile(n)
	}
	m, err := New(config.Baseline(), profiles, icountPolicy{}, 42)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestSmokeSingleThread(t *testing.T) {
	m := newTestMachine(t, "gzip")
	m.Run(20_000)
	st := m.Stats()
	if st.Threads[0].Committed == 0 {
		t.Fatalf("no instructions committed in 20k cycles:\n%s", st)
	}
	ipc := st.Threads[0].IPC(st.Cycles)
	if ipc < 0.2 || ipc > 8 {
		t.Fatalf("implausible single-thread IPC %.3f for gzip", ipc)
	}
}

func TestSmokeFourThreads(t *testing.T) {
	m := newTestMachine(t, "gzip", "mcf", "art", "eon")
	m.Run(20_000)
	st := m.Stats()
	for i := range st.Threads {
		if st.Threads[i].Committed == 0 {
			t.Fatalf("thread %d starved completely:\n%s", i, st)
		}
	}
	if tp := st.Throughput(); tp <= 0 || tp > 8 {
		t.Fatalf("implausible throughput %.3f", tp)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		m := newTestMachine(t, "gzip", "mcf")
		m.Run(15_000)
		return m.Stats().String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestConservation checks resource counters return to a consistent state:
// after a long run, every usage counter matches the occupancy implied by
// the structures, and nothing leaked.
func TestConservation(t *testing.T) {
	m := newTestMachine(t, "mcf", "gcc")
	m.Run(30_000)
	checkConservation(t, m, "mcf+gcc")
}

func BenchmarkCycle4Threads(b *testing.B) {
	m := newTestMachine(b, "gzip", "mcf", "art", "eon")
	m.Run(5_000) // warm structures
	b.ResetTimer()
	m.Run(uint64(b.N))
}
