package core

import (
	"testing"
	"testing/quick"

	"dcra/internal/config"
	"dcra/internal/cpu"
	"dcra/internal/trace"
	"dcra/internal/workload"
)

// TestEslowMatchesPaperTable1 is the golden test: equation 3 with
// C = 1/(FA+SA) must reproduce the paper's Table 1 exactly.
func TestEslowMatchesPaperTable1(t *testing.T) {
	want := map[[2]int]int{
		{0, 1}: 32, {1, 1}: 24, {0, 2}: 16, {2, 1}: 18, {1, 2}: 14,
		{0, 3}: 11, {3, 1}: 14, {2, 2}: 12, {1, 3}: 10, {0, 4}: 8,
	}
	for k, w := range want {
		if got := Eslow(32, 4, k[0], k[1], CActive); got != w {
			t.Errorf("Eslow(32,4,FA=%d,SA=%d) = %d, want %d (paper Table 1)", k[0], k[1], got, w)
		}
	}
}

func TestEslowNoSlowThreads(t *testing.T) {
	if got := Eslow(32, 4, 3, 0, CActive); got != 0 {
		t.Fatalf("no slow threads: Eslow = %d, want 0 (no bound needed)", got)
	}
	if got := Eslow(32, 4, 0, 0, CActive); got != 0 {
		t.Fatalf("no active threads: Eslow = %d, want 0", got)
	}
}

func TestEslowCZeroIsFairShare(t *testing.T) {
	for sa := 1; sa <= 4; sa++ {
		for fa := 0; fa+sa <= 4; fa++ {
			got := Eslow(80, 4, fa, sa, CZero)
			want := roundDiv(80, fa+sa)
			if got != want {
				t.Errorf("CZero Eslow(80,4,%d,%d) = %d, want fair share %d", fa, sa, got, want)
			}
		}
	}
}

// Property: a slow thread is never entitled to less than the fair share of
// active threads, never more than the whole resource, and lending from more
// fast threads never decreases its bound.
func TestEslowProperties(t *testing.T) {
	err := quick.Check(func(rRaw, faRaw, saRaw uint8, factorRaw uint8) bool {
		r := int(rRaw%200) + 4
		sa := int(saRaw%4) + 1
		fa := int(faRaw % 4)
		tcount := fa + sa
		factor := SharingFactor(factorRaw % 4)
		e := Eslow(r, tcount, fa, sa, factor)
		fair := r / (fa + sa)
		if e < fair {
			return false
		}
		if e > r {
			return false
		}
		// For a fixed number of active threads, converting one slow
		// competitor into a fast lender never lowers the bound.
		if sa >= 2 {
			fewerLenders := Eslow(r, tcount, fa, sa, factor)
			moreLenders := Eslow(r, tcount, fa+1, sa-1, factor)
			if moreLenders+1 < fewerLenders { // +1 tolerates rounding
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: total allocation is feasible — sa slow threads at their bound
// never exceed the resource plus what the fa fast threads could release.
func TestEslowTotalFeasibility(t *testing.T) {
	err := quick.Check(func(rRaw, faRaw, saRaw uint8) bool {
		r := int(rRaw%200) + 8
		sa := int(saRaw%4) + 1
		fa := int(faRaw % 4)
		e := Eslow(r, fa+sa, fa, sa, CActive)
		// All slow threads at their bound must fit within the resource
		// (fast threads squeeze into the remainder, possibly zero). Allow
		// the rounding slack of one entry per slow thread.
		return sa*e <= r+sa
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEslowFitsLiveMachine checks the sharing model's feasibility on a
// running machine, every cycle, instead of on the formula alone: for every
// DCRA resource Tick bounds, the slow-active threads at their bound fit in
// the resource, up to the one-entry-per-thread rounding slack
// TestEslowTotalFeasibility allows (three slow threads sharing 80 entries
// each get 27). It runs default DCRA at each of the paper's memory
// latencies, so it covers C = 1/T, C = 1/(T+4), and C = 0 for the IQs.
func TestEslowFitsLiveMachine(t *testing.T) {
	bounded := 0
	for _, lat := range config.PaperLatencies {
		cfg := config.Baseline().WithMemLatency(lat.Mem, lat.L2)
		for _, id := range []string{"MEM4.g1", "MIX4.g1", "MEM3.g2", "MIX2.g1"} {
			w, err := workload.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			d := New(OptionsForLatency(lat.Mem))
			m, err := cpu.New(cfg, w.Profiles(), d, 19)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40_000; i++ {
				m.Run(1)
				lim := d.Limits()
				for _, r := range cpu.DCRAResources {
					if lim[r] == 0 {
						continue
					}
					sa := 0
					for tid := 0; tid < m.NumThreads(); tid++ {
						if d.IsSlow(tid) && d.IsActive(tid, r) {
							sa++
						}
					}
					if sa*lim[r] > m.Total(r)+sa {
						t.Fatalf("%s at %d cycles, cycle %d: %d slow-active threads x E_slow %d of %s exceed %d entries",
							id, lat.Mem, m.Cycle(), sa, lim[r], r, m.Total(r))
					}
					bounded++
				}
			}
		}
	}
	if bounded == 0 {
		t.Fatal("no resource was ever bounded: the check never bit")
	}
}

func TestOptionsForLatency(t *testing.T) {
	if o := OptionsForLatency(100); o.IQFactor != CThreads || o.RegFactor != CThreads {
		t.Errorf("100-cycle options wrong: %+v", o)
	}
	if o := OptionsForLatency(300); o.IQFactor != CThreadsPlus4 || o.RegFactor != CThreadsPlus4 {
		t.Errorf("300-cycle options wrong: %+v", o)
	}
	if o := OptionsForLatency(500); o.IQFactor != CZero || o.RegFactor != CThreadsPlus4 {
		t.Errorf("500-cycle options wrong: %+v", o)
	}
}

func TestDefaultActivityY(t *testing.T) {
	d := New(Options{}) // zero options: Y must default to the paper's 256
	if d.opt.ActivityY != 256 {
		t.Fatalf("ActivityY defaulted to %d, want 256", d.opt.ActivityY)
	}
}

// integration: DCRA on a machine classifies an integer thread inactive for
// FP resources and enforces no gate on a single thread.
func TestDCRAOnMachine(t *testing.T) {
	d := Default()
	m, err := cpu.New(config.Baseline(), []trace.Profile{
		trace.MustProfile("art"),  // FP MEM
		trace.MustProfile("gzip"), // integer ILP
	}, d, 11)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(40_000)

	if d.IsActive(1, cpu.RFPIQ) || d.IsActive(1, cpu.RFPRegs) {
		t.Error("gzip (integer) should be inactive for FP resources after 40k cycles")
	}
	if !d.IsActive(0, cpu.RFPIQ) {
		t.Error("art (FP) should be active for the FP issue queue")
	}
	if !d.IsActive(0, cpu.RIntIQ) || !d.IsActive(1, cpu.RIntIQ) {
		t.Error("integer resources are always active")
	}

	// The FP-IQ bound must reflect art being the only FP-active thread:
	// with one active thread there is no competition, so either no bound
	// (SA=0 if art currently fast) or the full resource.
	lim := d.Limits()
	if lim[cpu.RFPIQ] != 0 && lim[cpu.RFPIQ] != m.Total(cpu.RFPIQ) {
		t.Errorf("FP IQ bound %d with a single FP-active thread", lim[cpu.RFPIQ])
	}
}

func TestDCRAGateConsistency(t *testing.T) {
	// A gated thread must be slow and above some resource bound at the
	// moment Tick computed the gate.
	d := Default()
	m, err := cpu.New(config.Baseline(), []trace.Profile{
		trace.MustProfile("mcf"), trace.MustProfile("twolf"),
		trace.MustProfile("gzip"), trace.MustProfile("eon"),
	}, d, 13)
	if err != nil {
		t.Fatal(err)
	}
	gatedSeen := 0
	for i := 0; i < 30_000; i++ {
		m.Run(1)
		for tid := 0; tid < 4; tid++ {
			if !d.Gate(m, tid) {
				continue
			}
			gatedSeen++
			if !d.IsSlow(tid) {
				t.Fatalf("cycle %d: thread %d gated but not slow", i, tid)
			}
		}
	}
	if gatedSeen == 0 {
		t.Fatal("DCRA never gated on a MEM-heavy 4-thread workload")
	}
}

func TestDCRASingleThreadNeverGates(t *testing.T) {
	d := Default()
	m, err := cpu.New(config.Baseline(), []trace.Profile{trace.MustProfile("mcf")}, d, 17)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		m.Run(1)
		if d.Gate(m, 0) {
			// With one thread, FA+SA=1 and E_slow is the whole resource:
			// usage can never exceed it.
			t.Fatal("single thread gated by DCRA")
		}
	}
}

// TestDispatchEnforcementAblation runs the dispatch-stage cap on a 4-thread
// MEM/ILP mix and checks it every cycle. Dispatch enforces the caps the
// previous cycle's Tick left, so no DCRA resource's usage may rise past the
// larger of its usage and its Cap read before the cycle.
func TestDispatchEnforcementAblation(t *testing.T) {
	o := DefaultOptions()
	o.EnforceDispatch = true
	d := New(o)
	m, err := cpu.New(config.Baseline(), []trace.Profile{
		trace.MustProfile("mcf"), trace.MustProfile("art"),
		trace.MustProfile("gzip"), trace.MustProfile("eon"),
	}, d, 19)
	if err != nil {
		t.Fatal(err)
	}
	nt := m.NumThreads()
	before := make([][cpu.NumResources]int, nt)
	caps := make([][cpu.NumResources]int, nt)
	reached := 0
	for i := 0; i < 60_000; i++ {
		for tid := 0; tid < nt; tid++ {
			for _, r := range cpu.DCRAResources {
				before[tid][r], caps[tid][r] = m.Usage(tid, r), d.Cap(m, tid, r)
			}
		}
		m.Run(1)
		for tid := 0; tid < nt; tid++ {
			for _, r := range cpu.DCRAResources {
				c, u := caps[tid][r], m.Usage(tid, r)
				if c == 0 {
					continue
				}
				if u > max(before[tid][r], c) {
					t.Fatalf("cycle %d: thread %d holds %d %s entries, from %d under cap %d",
						m.Cycle(), tid, u, r, before[tid][r], c)
				}
				if u == c && u > before[tid][r] {
					reached++
				}
			}
		}
	}
	if reached == 0 {
		t.Fatal("no dispatch reached its cap: the check never bit")
	}
	t.Logf("%d dispatches reached their cap", reached)
	if m.Stats().TotalCommitted() == 0 {
		t.Fatal("dispatch-enforced DCRA wedged the machine")
	}
	// Cap returns 0 for fast threads and for the ROB.
	if c := d.Cap(m, 0, cpu.RROB); c != 0 {
		t.Errorf("ROB cap = %d, want 0 (DCRA does not manage the ROB)", c)
	}
}
