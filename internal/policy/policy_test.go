package policy

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"dcra/internal/config"
	"dcra/internal/cpu"
	"dcra/internal/trace"
	"dcra/internal/workload"
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

// TestNamesStable builds every policy New knows, DCRA included, and checks
// that each reports the name it was built under. Most policies embed
// ICount, so one that forgot its own Name would report ICOUNT's.
func TestNamesStable(t *testing.T) {
	want := []string{NameDCRA, NameDG, NameFlush, NameFlushPP, NameICount, NamePDG, NameRR, NameSRA, NameStall}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range Names() {
		p, err := New(name, config.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
	}
	if got := (&Capped{}).Name(); got != NameCap {
		t.Errorf("Capped.Name() = %q, want %q", got, NameCap)
	}
}

// TestRoundRobinRotates checks that Rank rotates the candidate list left by
// the cycle number modulo its length: at cycle c the thread at position
// c mod n comes first, the rest following in order.
func TestRoundRobinRotates(t *testing.T) {
	rr := NewRoundRobin()
	m := machineWith(t, rr, "gzip", "eon", "bzip2", "mcf")
	for range 8 {
		for n := 1; n <= 4; n++ {
			ts := []int{10, 11, 12, 13}[:n]
			k := int(m.Cycle()) % n
			want := append(slices.Clone(ts[k:]), ts[:k]...)
			rr.Rank(m, ts)
			if !slices.Equal(ts, want) {
				t.Fatalf("cycle %d, %d threads: Rank gave %v, want %v", m.Cycle(), n, ts, want)
			}
		}
		m.Run(1)
	}
}

// TestRoundRobinRankAllocatesNothing checks that ranking allocates nothing
// on 2- and 4-thread machines, at every rotation: fetch ranks the threads
// every cycle.
func TestRoundRobinRankAllocatesNothing(t *testing.T) {
	rr := NewRoundRobin()
	for _, names := range [][]string{{"gzip", "eon"}, {"gzip", "eon", "bzip2", "mcf"}} {
		m := machineWith(t, rr, names...)
		ts := make([]int, len(names))
		for i := range ts {
			ts[i] = i
		}
		for range names {
			if allocs := testing.AllocsPerRun(100, func() { rr.Rank(m, ts) }); allocs != 0 {
				t.Errorf("%d threads, cycle %d: %v allocations per Rank, want 0", len(names), m.Cycle(), allocs)
			}
			m.Run(1)
		}
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

// statsJSON runs pol on a fresh machine over the named benchmarks for the
// given number of cycles and returns its statistics as JSON.
func statsJSON(t *testing.T, pol cpu.Policy, cycles uint64, names ...string) []byte {
	t.Helper()
	m := machineWith(t, pol, names...)
	m.Run(cycles)
	b, err := json.Marshal(m.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSingleThreadDCRAIsICount is a metamorphic check of DCRA (paper §3):
// with one thread there is no competition, so DCRA never gates or caps it
// and fetches by ICOUNT, exactly like ICOUNT itself. A single-thread DCRA
// machine must therefore produce byte-identical statistics, over MEM and ILP,
// integer and FP benchmarks. So must the uncapped Capped policy, which is
// ICOUNT with a partitioner whose caps are all unlimited.
func TestSingleThreadDCRAIsICount(t *testing.T) {
	cfg := config.Baseline()
	for _, bench := range []string{"mcf", "gzip", "art", "eon", "swim", "twolf"} {
		icount := statsJSON(t, NewICount(), 20_000, bench)
		dcra, err := New(NameDCRA, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []cpu.Policy{dcra, &Capped{}} {
			if got := statsJSON(t, pol, 20_000, bench); !bytes.Equal(got, icount) {
				t.Errorf("%s: single-thread %s statistics differ from ICOUNT's:\n%-6s %s\nICOUNT %s",
					bench, pol.Name(), pol.Name(), got, icount)
			}
		}
	}
}

// TestUncappedIsICount: with no cap set, Capped must equal ICOUNT on
// multiprogrammed workloads too — the dispatch stage consults its
// partitioner, but an unlimited cap never binds.
func TestUncappedIsICount(t *testing.T) {
	for _, id := range []string{"MEM4.g1", "MIX4.g2", "ILP3.g1", "MIX2.g3"} {
		w, err := workload.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		icount := statsJSON(t, NewICount(), 30_000, w.Names...)
		if got := statsJSON(t, &Capped{}, 30_000, w.Names...); !bytes.Equal(got, icount) {
			t.Errorf("%s: uncapped statistics differ from ICOUNT's:\nCAP    %s\nICOUNT %s", id, got, icount)
		}
	}
}
