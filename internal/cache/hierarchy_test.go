package cache

import (
	"math/rand/v2"
	"slices"
	"testing"

	"dcra/internal/config"
)

func testHierarchy() *Hierarchy {
	cfg := config.Baseline()
	return NewHierarchy(cfg)
}

func TestDataAccessLevels(t *testing.T) {
	h := testHierarchy()
	addr := uint64(1 << 20)
	h.TLB.Access(addr) // pre-translate so latencies below are pure cache

	res := h.AccessD(addr, 100)
	if !res.L1Miss || !res.L2Miss {
		t.Fatalf("cold access should miss both levels: %+v", res)
	}
	if res.Latency < 300 {
		t.Fatalf("memory access latency %d < memory latency", res.Latency)
	}

	// After the fill time, the line hits L1.
	res2 := h.AccessD(addr, res.DoneAt+10)
	if res2.L1Miss {
		t.Fatalf("post-fill access should hit L1: %+v", res2)
	}
	if res2.Latency > 3 {
		t.Fatalf("L1 hit latency %d too high", res2.Latency)
	}
}

func TestMSHRMerging(t *testing.T) {
	h := testHierarchy()
	addr := uint64(2 << 20)
	h.TLB.Access(addr)
	first := h.AccessD(addr, 100)
	if !first.L2Miss {
		t.Fatal("expected memory miss")
	}
	// A second miss to the same line while in flight completes with the
	// original fill, not a second memory access.
	second := h.AccessD(addr+8, 150)
	if !second.L2Miss {
		t.Fatal("merged access should still classify as L2 miss")
	}
	if second.DoneAt != first.DoneAt {
		t.Fatalf("merged access DoneAt %d, want %d", second.DoneAt, first.DoneAt)
	}
	if h.MemMisses != 1 {
		t.Fatalf("memory fills = %d, want 1 (merged)", h.MemMisses)
	}
}

func TestOutstandingMem(t *testing.T) {
	h := testHierarchy()
	base := uint64(8 << 20)
	for i := uint64(0); i < 5; i++ {
		a := base + i*4096
		h.TLB.Access(a)
		h.AccessD(a, 100)
	}
	if got := h.OutstandingMem(150); got != 5 {
		t.Fatalf("outstanding = %d, want 5", got)
	}
	if got := h.OutstandingMem(100 + 400); got != 0 {
		t.Fatalf("outstanding after fills = %d, want 0", got)
	}
}

func TestOutstandingMemCappedAtMSHRs(t *testing.T) {
	cfg := config.Baseline()
	cfg.MSHREntries = 4
	h := NewHierarchy(cfg)
	base := uint64(16 << 20)
	for i := uint64(0); i < 10; i++ {
		a := base + i*4096
		h.TLB.Access(a)
		h.AccessD(a, 100)
	}
	if got := h.OutstandingMem(150); got != 4 {
		t.Fatalf("outstanding = %d, want MSHR cap 4", got)
	}
}

func TestMSHRSerialisationBounded(t *testing.T) {
	cfg := config.Baseline()
	cfg.MSHREntries = 2
	h := NewHierarchy(cfg)
	base := uint64(32 << 20)
	var last AccessResult
	for i := uint64(0); i < 6; i++ {
		a := base + i*4096
		h.TLB.Access(a)
		last = h.AccessD(a, 100)
	}
	// With serialisation bounded by one memory latency behind the earliest
	// fill, even a burst of misses completes within ~2 memory latencies.
	if last.DoneAt > 100+3*uint64(cfg.MemLatency) {
		t.Fatalf("fill scheduled too far out: DoneAt=%d", last.DoneAt)
	}
}

func TestTLBMissPenalty(t *testing.T) {
	h := testHierarchy()
	addr := uint64(64 << 20)
	res := h.AccessD(addr, 100)
	if !res.TLBMiss {
		t.Fatal("cold page should miss TLB")
	}
	res2 := h.AccessD(addr+64, 1000)
	if res2.TLBMiss {
		t.Fatal("same page should hit TLB")
	}
}

func TestPerfectDCache(t *testing.T) {
	cfg := config.Baseline()
	cfg.PerfectDCache = true
	h := NewHierarchy(cfg)
	a := uint64(128 << 20)
	h.TLB.Access(a)
	res := h.AccessD(a, 10)
	if res.L1Miss || res.L2Miss {
		t.Fatalf("perfect D-cache must not miss: %+v", res)
	}
	if res.Latency != cfg.DCache.Latency {
		t.Fatalf("perfect hit latency %d, want %d", res.Latency, cfg.DCache.Latency)
	}
}

func TestPerfectICache(t *testing.T) {
	cfg := config.Baseline()
	cfg.PerfectICache = true
	h := NewHierarchy(cfg)
	if lat, miss := h.AccessI(1<<30, 10); miss || lat != cfg.ICache.Latency {
		t.Fatalf("perfect I-cache returned lat=%d miss=%v", lat, miss)
	}
}

func TestInstructionMissGoesToL2(t *testing.T) {
	h := testHierarchy()
	addr := uint64(3 << 20)
	lat, miss := h.AccessI(addr, 10)
	if !miss {
		t.Fatal("cold I-access should miss")
	}
	if lat < h.cfg.MemLatency {
		t.Fatalf("cold I-miss latency %d should include memory", lat)
	}
	lat2, miss2 := h.AccessI(addr, 1000)
	if miss2 || lat2 != h.cfg.ICache.Latency {
		t.Fatalf("warmed I-access lat=%d miss=%v", lat2, miss2)
	}
}

func TestPrewarm(t *testing.T) {
	h := testHierarchy()
	h.PrewarmData(1<<22, 8<<10, true)
	h.PrewarmCode(1<<23, 4<<10)
	res := h.AccessD(1<<22, 10)
	if res.L1Miss {
		t.Fatal("prewarmed data line should hit L1D")
	}
	if _, miss := h.AccessI(1<<23, 10); miss {
		t.Fatal("prewarmed code line should hit L1I")
	}
	// Prewarm must not disturb bank scheduling at t=0.
	if res.Latency > h.cfg.DCache.Latency+1 {
		t.Fatalf("prewarm polluted bank state: latency %d", res.Latency)
	}
}

func TestResetStats(t *testing.T) {
	h := testHierarchy()
	h.AccessD(4<<20, 10)
	h.AccessI(5<<20, 10)
	h.ResetStats()
	if h.L1D.Accesses != 0 || h.L1I.Accesses != 0 || h.L2.Accesses != 0 || h.MemMisses != 0 {
		t.Fatal("ResetStats left counters behind")
	}
}

func TestHierarchyResetAndReinit(t *testing.T) {
	h := testHierarchy()
	addr := uint64(9 << 20)
	h.AccessD(addr, 10) // cold: allocates lines, a TLB entry and an MSHR
	h.AccessI(addr, 10)

	// Reinit to the same config resets the memory system.
	if !h.Reinit(h.cfg) {
		t.Fatal("Reinit must accept the hierarchy's own config")
	}
	if h.L1D.Probe(addr) || h.L1I.Probe(addr) || h.L2.Probe(addr) {
		t.Fatal("Reinit must invalidate every level")
	}
	if h.L1D.Accesses != 0 || h.MemMisses != 0 {
		t.Fatal("Reinit must clear statistics")
	}
	if h.OutstandingMem(0) != 0 {
		t.Fatal("Reinit must drain the MSHR files")
	}
	// A post-Reinit access behaves exactly like a post-construction one.
	if res := h.AccessD(addr, 10); !res.L1Miss || !res.L2Miss || !res.TLBMiss {
		t.Fatalf("post-Reinit access not cold: %+v", res)
	}

	// Reinit adopts latency-only changes and refuses geometry changes.
	cfg := h.cfg
	cfg.MemLatency = 123
	if !h.Reinit(cfg) {
		t.Fatal("Reinit must accept a same-geometry config")
	}
	if h.L1D.Probe(addr) || h.OutstandingMem(0) != 0 {
		t.Fatal("Reinit must invalidate and drain")
	}
	if res := h.AccessD(addr, 10); !res.L2Miss || res.Latency < 123 {
		t.Fatalf("Reinit did not adopt the new memory latency: %+v", res)
	}
	bad := cfg
	bad.L2.Assoc *= 2
	if h.Reinit(bad) {
		t.Fatal("Reinit must refuse a geometry change")
	}
}

// TestLazyMSHRExpiryMatchesEager drives two hierarchies with the same random
// data accesses. One expires its MSHR files lazily, as it always does; the
// other is forced to sweep them on every query, as an eager file would. With
// four MSHRs and a working set far beyond L2, the files fill and fills
// serialise. Every AccessResult, OutstandingMem on every cycle and both
// files' contents must agree, and each file's next must be its earliest
// fill.
func TestLazyMSHRExpiryMatchesEager(t *testing.T) {
	cfg := config.Baseline()
	cfg.MSHREntries = 4
	lazy, eager := NewHierarchy(cfg), NewHierarchy(cfg)
	forceSweep := func() { eager.l1mshrs.next, eager.l2mshrs.next = 0, 0 }
	rg := rand.New(rand.NewPCG(3, 5))
	line := uint64(cfg.L2.LineBytes)
	// A few hot lines, merged into fills in flight, and a stream of cold
	// ones over 64 MB: most accesses miss L2.
	hot := make([]uint64, 8)
	for i := range hot {
		hot[i] = rg.Uint64N(1<<26) &^ (line - 1)
	}
	now, full := uint64(1), 0
	for step := 0; step < 200_000; step++ {
		switch x := rg.IntN(10); {
		case x < 4:
			// another access in the same cycle
		case x < 9:
			now += rg.Uint64N(4) + 1
		default:
			now += rg.Uint64N(400)
		}
		forceSweep()
		if got, want := lazy.OutstandingMem(now), eager.OutstandingMem(now); got != want {
			t.Fatalf("step %d, cycle %d: OutstandingMem %d, eager %d", step, now, got, want)
		}
		addr := rg.Uint64N(1 << 26)
		if rg.IntN(3) == 0 {
			addr = hot[rg.IntN(len(hot))] + rg.Uint64N(line)
		}
		forceSweep()
		if got, want := lazy.AccessD(addr, now), eager.AccessD(addr, now); got != want {
			t.Fatalf("step %d, cycle %d, addr %#x: %+v, eager %+v", step, now, addr, got, want)
		}
		if len(lazy.l2mshrs.ms) > cfg.MSHREntries {
			full++
		}
		for _, f := range []struct {
			name        string
			lazy, eager *mshrFile
		}{{"L1", &lazy.l1mshrs, &eager.l1mshrs}, {"L2", &lazy.l2mshrs, &eager.l2mshrs}} {
			if !slices.Equal(f.lazy.ms, f.eager.ms) {
				t.Fatalf("step %d, cycle %d: %s MSHRs %v, eager %v", step, now, f.name, f.lazy.ms, f.eager.ms)
			}
			next := ^uint64(0)
			for _, m := range f.lazy.ms {
				next = min(next, m.fillAt)
			}
			if f.lazy.next != next {
				t.Fatalf("step %d: %s next = %d, earliest fill %d", step, f.name, f.lazy.next, next)
			}
		}
	}
	if lazy.MemMisses != eager.MemMisses || lazy.MemMisses == 0 {
		t.Fatalf("memory fills: lazy %d, eager %d", lazy.MemMisses, eager.MemMisses)
	}
	if full == 0 {
		t.Fatal("the L2 MSHR file never held more fills than MSHRs: no serialised fill was checked")
	}
	t.Logf("%d memory fills; %d accesses left the L2 file past its %d MSHRs", lazy.MemMisses, full, cfg.MSHREntries)
}
