package policy

import (
	"bytes"
	"encoding/json"
	"testing"

	"dcra/internal/config"
	"dcra/internal/cpu"
	"dcra/internal/trace"
)

func machineWith(t *testing.T, pol cpu.Policy, names ...string) *cpu.Machine {
	t.Helper()
	profiles := make([]trace.Profile, len(names))
	for i, n := range names {
		profiles[i] = trace.MustProfile(n)
	}
	m, err := cpu.New(config.Baseline(), profiles, pol, 0xfeed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNamesStable(t *testing.T) {
	checks := map[string]cpu.Policy{
		"RR": NewRoundRobin(), "ICOUNT": NewICount(), "STALL": NewStall(),
		"FLUSH": NewFlush(), "FLUSH++": NewFlushPP(), "DG": NewDG(),
		"PDG": NewPDG(), "SRA": NewSRA(),
	}
	for want, p := range checks {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
}

func TestRoundRobinRotates(t *testing.T) {
	rr := NewRoundRobin()
	m := machineWith(t, rr, "gzip", "eon", "bzip2")
	m.Run(1)
	a := []int{0, 1, 2}
	rr.Rank(m, a)
	m.Run(1)
	b := []int{0, 1, 2}
	rr.Rank(m, b)
	if a[0] == b[0] {
		t.Fatalf("priority did not rotate: %v then %v", a, b)
	}
}

func TestICountOrdersByOccupancy(t *testing.T) {
	p := NewICount()
	m := machineWith(t, p, "mcf", "gzip")
	m.Run(5000)
	ts := []int{0, 1}
	p.Rank(m, ts)
	if m.ICount(ts[0]) > m.ICount(ts[1]) {
		t.Fatalf("rank order violates ICOUNT: %d(%d) before %d(%d)",
			ts[0], m.ICount(ts[0]), ts[1], m.ICount(ts[1]))
	}
}

func TestStallGatesOnPendingL2(t *testing.T) {
	p := NewStall()
	m := machineWith(t, p, "mcf", "gzip")
	sawGate := false
	for i := 0; i < 30000 && !sawGate; i++ {
		m.Run(1)
		if m.PendingL2(0) > 0 {
			if !p.Gate(m, 0) {
				t.Fatal("STALL must gate a thread with pending L2 misses")
			}
			sawGate = true
		}
		if m.PendingL2(1) == 0 && p.Gate(m, 1) {
			t.Fatal("STALL gated a thread without pending L2 misses")
		}
	}
	if !sawGate {
		t.Fatal("mcf never accumulated a pending L2 miss in 30k cycles")
	}
}

func TestFlushSquashesOncePerEpisode(t *testing.T) {
	p := NewFlush()
	m := machineWith(t, p, "mcf", "gzip")
	m.Run(40_000)
	st := m.Stats()
	if st.Threads[0].Flushes == 0 {
		t.Fatal("FLUSH never flushed mcf in 40k cycles")
	}
	// A flush squashes younger uops: squashed count reflects it.
	if st.Threads[0].Squashed == 0 {
		t.Fatal("flushes reported but nothing squashed")
	}
	// Forward progress must continue.
	if st.Threads[0].Committed == 0 || st.Threads[1].Committed == 0 {
		t.Fatalf("starvation under FLUSH: %v", st)
	}
}

func TestDGGatesOnL1Misses(t *testing.T) {
	p := NewDG()
	m := machineWith(t, p, "mcf", "gzip")
	saw := false
	for i := 0; i < 30000; i++ {
		m.Run(1)
		g0 := p.Gate(m, 0)
		if g0 != (m.PendingL1D(0) > 0) {
			t.Fatal("DG gate must equal pendingL1D > 0")
		}
		saw = saw || g0
	}
	if !saw {
		t.Fatal("DG never gated mcf")
	}
}

func TestPDGProgresses(t *testing.T) {
	p := NewPDG()
	m := machineWith(t, p, "mcf", "twolf")
	m.Run(60_000)
	st := m.Stats()
	for i := range st.Threads {
		if st.Threads[i].Committed == 0 {
			t.Fatalf("thread %d starved under PDG (gate leak?):\n%s", i, st)
		}
	}
}

func TestSRACapsAreEqualShares(t *testing.T) {
	p := NewSRA()
	m := machineWith(t, p, "gzip", "mcf", "art", "eon")
	for _, r := range []cpu.Resource{cpu.RIntIQ, cpu.RFPIQ, cpu.RLSIQ, cpu.RIntRegs, cpu.RFPRegs, cpu.RROB} {
		want := m.Total(r) / 4
		for tid := 0; tid < 4; tid++ {
			if got := p.Cap(m, tid, r); got != want {
				t.Errorf("Cap(t%d, %v) = %d, want %d", tid, r, got, want)
			}
		}
	}
}

func TestSRANeverExceedsPartition(t *testing.T) {
	p := NewSRA()
	m := machineWith(t, p, "mcf", "twolf", "art", "swim")
	caps := map[cpu.Resource]int{}
	for _, r := range cpu.DCRAResources {
		caps[r] = m.Total(r) / 4
	}
	for i := 0; i < 30_000; i++ {
		m.Run(1)
		for tid := 0; tid < 4; tid++ {
			for r, c := range caps {
				if u := m.Usage(tid, r); u > c {
					t.Fatalf("cycle %d: thread %d uses %d of %v, cap %d", i, tid, u, r, c)
				}
			}
		}
	}
}

func TestFlushPPModeSwitch(t *testing.T) {
	p := NewFlushPP()
	// All-MEM 4-thread workload: must settle in FLUSH mode.
	m := machineWith(t, p, "mcf", "art", "swim", "equake")
	m.Run(40_000)
	if !p.FlushMode() {
		t.Error("FLUSH++ should use FLUSH mode on a 4-MEM workload")
	}
	// All-ILP workload: must settle in STALL mode.
	p2 := NewFlushPP()
	m2 := machineWith(t, p2, "gzip", "eon", "bzip2", "crafty")
	m2.Run(40_000)
	if p2.FlushMode() {
		t.Error("FLUSH++ should use STALL mode on a 4-ILP workload")
	}
}

func TestGatingPoliciesStillCommit(t *testing.T) {
	mks := []func() cpu.Policy{
		func() cpu.Policy { return NewRoundRobin() },
		func() cpu.Policy { return NewICount() },
		func() cpu.Policy { return NewStall() },
		func() cpu.Policy { return NewFlush() },
		func() cpu.Policy { return NewFlushPP() },
		func() cpu.Policy { return NewDG() },
		func() cpu.Policy { return NewPDG() },
		func() cpu.Policy { return NewSRA() },
	}
	for _, mk := range mks {
		pol := mk()
		m := machineWith(t, pol, "mcf", "gzip")
		m.Run(40_000)
		st := m.Stats()
		for i := range st.Threads {
			if st.Threads[i].Committed == 0 {
				t.Errorf("%s: thread %d starved completely", pol.Name(), i)
			}
		}
	}
}

// TestSingleThreadDCRAIsICount is a metamorphic check of DCRA (paper §3):
// with one thread there is no competition, so DCRA never gates or caps it
// and fetches by ICOUNT, exactly like ICOUNT itself. A single-thread DCRA
// machine must therefore produce byte-identical statistics, over MEM and ILP,
// integer and FP benchmarks.
func TestSingleThreadDCRAIsICount(t *testing.T) {
	cfg := config.Baseline()
	for _, bench := range []string{"mcf", "gzip", "art", "eon", "swim", "twolf"} {
		stats := make(map[string][]byte)
		for _, name := range []string{"DCRA", "ICOUNT"} {
			pol, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := cpu.New(cfg, []trace.Profile{trace.MustProfile(bench)}, pol, 0xfeed)
			if err != nil {
				t.Fatal(err)
			}
			m.Run(20_000)
			if stats[name], err = json.Marshal(m.Stats()); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(stats["DCRA"], stats["ICOUNT"]) {
			t.Errorf("%s: single-thread DCRA statistics differ from ICOUNT's:\nDCRA   %s\nICOUNT %s",
				bench, stats["DCRA"], stats["ICOUNT"])
		}
	}
}
