package cache

import (
	"math/rand/v2"
	"testing"
)

// refTLB is the reference model for TLB: a fully-associative LRU TLB over a
// Go map, filling free slots top-down and evicting the minimum-stamp slot,
// the lowest on ties.
type refTLB struct {
	slots  []line
	index  map[uint64]int
	valid  int
	stamp  uint64
	misses uint64
}

func newRefTLB(n int) *refTLB {
	return &refTLB{slots: make([]line, n), index: map[uint64]int{}}
}

// touch looks page up, allocating on a miss. It reports a hit and, when a
// valid entry made room, the page it evicted.
func (r *refTLB) touch(page uint64, count bool) (hit bool, evicted uint64, didEvict bool) {
	r.stamp++
	if i, ok := r.index[page]; ok {
		r.slots[i].lru = r.stamp
		return true, 0, false
	}
	if count {
		r.misses++
	}
	victim := 0
	if r.valid < len(r.slots) {
		victim = len(r.slots) - 1 - r.valid
		r.valid++
	} else {
		for i := range r.slots {
			if r.slots[i].lru < r.slots[victim].lru {
				victim = i
			}
		}
		evicted, didEvict = r.slots[victim].tag, true
		delete(r.index, evicted)
	}
	r.slots[victim] = line{tag: page, valid: true, lru: r.stamp}
	r.index[page] = victim
	return false, evicted, didEvict
}

func (r *refTLB) reset() {
	clear(r.slots)
	clear(r.index)
	r.valid, r.stamp, r.misses = 0, 0, 0
}

// TestTLBMatchesReference drives the TLB and a map-based reference model
// with the same random Access, Insert and Reset sequences over more pages
// than the TLB holds, so entries are evicted all the time. After every
// operation the hit or miss, the evicted page, Misses and the slot contents
// must agree, and the open-addressed index must name exactly the valid
// slots.
func TestTLBMatchesReference(t *testing.T) {
	const pageBytes = 8 << 10
	for _, n := range []int{1, 3, 16, 48, 128} {
		rg := rand.New(rand.NewPCG(uint64(n), 7))
		tlb, ref := NewTLB(n, pageBytes), newRefTLB(n)
		pages := uint64(2*n + 3)
		var page uint64
		for op := 0; op < 50_000; op++ {
			// Mostly a random page, sometimes the next or the same one
			// (the page-sequential walks Insert's shortcut serves), and
			// sometimes a far page whose hash lands anywhere.
			switch x := rg.IntN(100); {
			case x < 60:
				page = rg.Uint64N(pages)
			case x < 80:
				page++
			case x < 90:
			default:
				page = rg.Uint64() >> 20
			}
			addr := page*pageBytes + rg.Uint64N(pageBytes)

			if rg.IntN(1000) == 0 {
				tlb.Reset()
				ref.reset()
				continue
			}
			// Insert reports nothing, so its hit is whether the page was
			// held before.
			held := false
			for _, e := range tlb.entries {
				held = held || e.valid && e.tag == page
			}
			access := rg.IntN(10) < 6
			hit := held
			if access {
				hit = tlb.Access(addr)
			} else {
				tlb.Insert(addr)
			}
			wantHit, evicted, didEvict := ref.touch(page, access)
			if hit != wantHit {
				t.Fatalf("n=%d op %d page %#x: hit %v, reference %v", n, op, page, hit, wantHit)
			}
			if didEvict {
				for _, e := range tlb.entries {
					if e.valid && e.tag == evicted {
						t.Fatalf("n=%d op %d: the reference evicted page %#x, the TLB kept it", n, op, evicted)
					}
				}
			}
			if tlb.Misses != ref.misses {
				t.Fatalf("n=%d op %d: Misses %d, reference %d", n, op, tlb.Misses, ref.misses)
			}
			for i := range ref.slots {
				if tlb.entries[i] != ref.slots[i] {
					t.Fatalf("n=%d op %d slot %d: %+v, reference %+v", n, op, i, tlb.entries[i], ref.slots[i])
				}
			}
			checkTLBIndex(t, tlb)
		}
	}
}

// checkTLBIndex asserts that the index holds exactly the valid slots, each
// reachable by a probe from its page's home position.
func checkTLBIndex(t *testing.T, tlb *TLB) {
	t.Helper()
	held := 0
	for _, s := range tlb.index {
		if s != 0 {
			held++
		}
	}
	if held != tlb.valid {
		t.Fatalf("index holds %d slots, the TLB %d valid entries", held, tlb.valid)
	}
	for i, e := range tlb.entries {
		if e.valid && tlb.lookup(e.tag) != int32(i) {
			t.Fatalf("page %#x in slot %d: index lookup gives %d", e.tag, i, tlb.lookup(e.tag))
		}
	}
}
