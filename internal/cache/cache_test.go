package cache

import (
	"testing"
	"testing/quick"

	"dcra/internal/config"
)

func smallCache() *Cache {
	return NewCache(config.CacheConfig{
		SizeBytes: 4 << 10, Assoc: 2, LineBytes: 64, Banks: 1, Latency: 1,
	}) // 32 sets x 2 ways
}

func TestMissThenHit(t *testing.T) {
	c := smallCache()
	if _, miss := c.Access(0x1000, 10); !miss {
		t.Fatal("cold access should miss")
	}
	if _, miss := c.Access(0x1000, 20); miss {
		t.Fatal("second access should hit")
	}
	if _, miss := c.Access(0x1030, 30); miss {
		t.Fatal("same-line access should hit")
	}
	if c.Accesses != 3 || c.Misses != 1 {
		t.Fatalf("stats accesses=%d misses=%d", c.Accesses, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache() // 32 sets: addresses 64*32 apart share a set
	setStride := uint64(64 * 32)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a, 1)
	c.Access(b, 2)
	c.Access(a, 3) // refresh a: b becomes LRU
	c.Access(d, 4) // evicts b
	if !c.Probe(a) {
		t.Fatal("a should survive (recently used)")
	}
	if c.Probe(b) {
		t.Fatal("b should be evicted (LRU)")
	}
	if !c.Probe(d) {
		t.Fatal("d should be present")
	}
}

func TestBankConflictDelay(t *testing.T) {
	c := NewCache(config.CacheConfig{
		SizeBytes: 4 << 10, Assoc: 2, LineBytes: 64, Banks: 2, Latency: 1,
	})
	// Two accesses to the same bank in the same cycle: the second waits.
	lat1, _ := c.Access(0, 100)
	lat2, _ := c.Access(2*64, 100) // lines 0 and 2 -> same bank of 2
	if lat1 != 1 {
		t.Fatalf("first access latency %d, want 1", lat1)
	}
	if lat2 != 2 {
		t.Fatalf("conflicting access latency %d, want 2", lat2)
	}
	// Different bank: no delay.
	lat3, _ := c.Access(1*64, 100)
	if lat3 != 1 {
		t.Fatalf("other-bank access latency %d, want 1", lat3)
	}
}

func TestTouchBypassesStatsAndBanks(t *testing.T) {
	c := smallCache()
	if c.Touch(0x40) {
		t.Fatal("Touch of a cold line must report a miss")
	}
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatal("Touch must not count statistics")
	}
	if lat, miss := c.Access(0x40, 1); miss || lat != 1 {
		t.Fatalf("touched line should hit with base latency, got lat=%d miss=%v", lat, miss)
	}
}

func TestCacheResetStats(t *testing.T) {
	c := smallCache()
	c.Access(0, 1)
	c.ResetStats()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatal("ResetStats must clear statistics")
	}
	if !c.Probe(0) {
		t.Fatal("ResetStats must keep contents")
	}
}

func TestResetInvalidates(t *testing.T) {
	c := smallCache()
	c.Access(0, 1)
	c.Access(0x4000, 5) // occupy a bank port well into the future
	c.Reset()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatal("Reset must clear statistics")
	}
	if c.Probe(0) || c.Probe(0x4000) {
		t.Fatal("Reset must invalidate every line")
	}
	// Bank ports must be idle again: a fresh access at cycle 1 sees no delay.
	if lat, _ := c.Access(0, 1); lat != c.cfg.Latency {
		t.Fatalf("bank port still busy after Reset: lat=%d", lat)
	}
}

func TestCacheReinit(t *testing.T) {
	c := smallCache()
	c.Access(0, 1)
	cfg := c.cfg
	cfg.Latency = c.cfg.Latency + 3 // latency may change without rebuilding
	if !c.Reinit(cfg) {
		t.Fatal("Reinit must accept a same-geometry config")
	}
	if c.Probe(0) {
		t.Fatal("Reinit must invalidate contents")
	}
	if lat, _ := c.Access(0, 1); lat != cfg.Latency {
		t.Fatalf("Reinit did not adopt the new latency: lat=%d want %d", lat, cfg.Latency)
	}
	bad := cfg
	bad.SizeBytes *= 2
	if c.Reinit(bad) {
		t.Fatal("Reinit must refuse a geometry change")
	}
}

func TestMissRate(t *testing.T) {
	c := smallCache()
	if c.MissRate() != 0 {
		t.Fatal("empty cache miss rate should be 0")
	}
	c.Access(0, 1)
	c.Access(0, 2)
	if got := c.MissRate(); got != 50 {
		t.Fatalf("miss rate %v, want 50", got)
	}
}

// Property: a set never holds duplicate valid tags.
func TestNoDuplicateTagsProperty(t *testing.T) {
	c := smallCache()
	err := quick.Check(func(addrs []uint16) bool {
		for i, a := range addrs {
			c.Access(uint64(a)*8, uint64(i))
		}
		// Scan all sets for duplicates.
		sets := c.cfg.Sets()
		for s := 0; s < sets; s++ {
			ways := c.sets[s*c.assoc : (s+1)*c.assoc]
			seen := map[uint64]bool{}
			for _, w := range ways {
				if !w.valid {
					continue
				}
				if seen[w.tag] {
					return false
				}
				seen[w.tag] = true
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(4, 8<<10)
	if tlb.Access(0) {
		t.Fatal("cold TLB access should miss")
	}
	if !tlb.Access(100) {
		t.Fatal("same-page access should hit")
	}
	// Fill 4 entries, then a 5th evicts the LRU (page 0).
	for p := uint64(1); p <= 4; p++ {
		tlb.Access(p * 8192)
	}
	if tlb.Access(0) {
		t.Fatal("page 0 should have been evicted")
	}
	if tlb.MissRate() <= 0 {
		t.Fatal("miss rate should be positive")
	}
	tlb.ResetStats()
	if tlb.Accesses != 0 {
		t.Fatal("ResetStats must clear counters")
	}
}
