package cache

// TLB is a fully-associative translation lookaside buffer with LRU
// replacement. The simulator runs on synthetic addresses, so "translation"
// is only a presence check: a miss costs the configured penalty.
//
// Lookups are O(1): a page->slot index makes the hit path one short probe
// plus an LRU stamp update. The O(n) victim search runs only on a miss with
// a full TLB, and misses are rare by construction (the TLB covers the
// resident working set after pre-warming). Replacement order is identical to
// a linear-scan TLB: invalid slots fill top-down first, then the
// minimum-stamp (LRU) entry is evicted, ties resolved toward the lowest slot
// index.
type TLB struct {
	entries []line
	// index is an open-addressed page->slot table with linear probing:
	// slot+1 of a valid entry at the position its page hashes to or the
	// first free one after it, 0 for free. It has a power-of-two size of at
	// least twice the entries, so probes stay short; deletion shifts the
	// following run back, so a probe can stop at the first free position.
	index     []int32
	indexBits uint
	valid     int   // number of valid entries; slots fill top-down
	lastSlot  int32 // slot of the last Insert hit, -1 if none
	pageBits  uint
	stamp     uint64

	Accesses uint64
	Misses   uint64
}

// NewTLB builds a TLB with n entries over pages of pageBytes.
func NewTLB(n, pageBytes int) *TLB {
	indexBits := uint(1)
	for 1<<indexBits < 2*n {
		indexBits++
	}
	return &TLB{
		entries:   make([]line, n),
		index:     make([]int32, 1<<indexBits),
		indexBits: indexBits,
		lastSlot:  -1,
		pageBits:  log2(pageBytes),
	}
}

// log2 returns floor(log2(n)) for n >= 1, 0 otherwise.
func log2(n int) uint {
	bits := uint(0)
	for l := n; l > 1; l >>= 1 {
		bits++
	}
	return bits
}

// home returns the index position page hashes to (Fibonacci hashing).
func (t *TLB) home(page uint64) int {
	return int((page * 0x9e3779b97f4a7c15) >> (64 - t.indexBits))
}

// lookup returns the slot holding page, or -1.
func (t *TLB) lookup(page uint64) int32 {
	mask := len(t.index) - 1
	for i := t.home(page); ; i = (i + 1) & mask {
		s := t.index[i] - 1
		if s < 0 || t.entries[s].tag == page {
			return s
		}
	}
}

// Access looks up the page of addr, allocating on miss. It reports a hit.
func (t *TLB) Access(addr uint64) bool {
	t.Accesses++
	t.stamp++
	page := addr >> t.pageBits
	if i := t.lookup(page); i >= 0 {
		t.entries[i].lru = t.stamp
		return true
	}
	t.Misses++
	t.insertPage(page)
	return false
}

// Insert pre-loads the page of addr without counting statistics (used by
// hierarchy pre-warming and fast-forward warming). The last inserted page is
// short-circuited past the index probe — warming walks are heavily
// page-sequential — with identical contents and LRU order.
func (t *TLB) Insert(addr uint64) {
	t.stamp++
	page := addr >> t.pageBits
	if s := t.lastSlot; s >= 0 && t.entries[s].valid && t.entries[s].tag == page {
		t.entries[s].lru = t.stamp
		return
	}
	if i := t.lookup(page); i >= 0 {
		t.entries[i].lru = t.stamp
		t.lastSlot = i
		return
	}
	t.lastSlot = t.insertPage(page)
}

// insertPage places page, which the TLB does not hold, into a free slot
// (top-down fill) or the LRU entry's, and returns the slot.
func (t *TLB) insertPage(page uint64) int32 {
	var victim int32
	if t.valid < len(t.entries) {
		victim = int32(len(t.entries) - 1 - t.valid)
		t.valid++
	} else {
		for i := range t.entries {
			if t.entries[i].lru < t.entries[victim].lru {
				victim = int32(i)
			}
		}
		t.unindex(t.entries[victim].tag)
	}
	t.entries[victim] = line{tag: page, valid: true, lru: t.stamp}
	mask := len(t.index) - 1
	i := t.home(page)
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = victim + 1
	return victim
}

// unindex removes page, which the TLB holds, from the index. Every entry
// after it in the probe run whose home position is not cyclically in
// (hole, entry] shifts back into the hole, so no run is broken by a free
// position.
func (t *TLB) unindex(page uint64) {
	mask := len(t.index) - 1
	hole := t.home(page)
	for t.entries[t.index[hole]-1].tag != page {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		home := t.home(t.entries[t.index[j]-1].tag)
		// The entry at j may move to hole unless its home lies in (hole, j].
		if (j-home)&mask >= (j-hole)&mask {
			t.index[hole] = t.index[j]
			hole = j
		}
	}
	t.index[hole] = 0
}

// MissRate returns misses per access in percent.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return 100 * float64(t.Misses) / float64(t.Accesses)
}

// ResetStats clears counters but keeps contents.
func (t *TLB) ResetStats() { t.Accesses, t.Misses = 0, 0 }

// Reset restores the TLB to its post-construction state without
// reallocating: all entries invalid, the page index empty, stamps and
// statistics zeroed.
func (t *TLB) Reset() {
	clear(t.entries)
	clear(t.index)
	t.valid = 0
	t.lastSlot = -1
	t.stamp = 0
	t.ResetStats()
}

// Reinit rebinds the TLB to a new (entries, page size) pair, reusing its
// storage. It reports false — leaving the TLB untouched — on a geometry
// mismatch.
func (t *TLB) Reinit(n, pageBytes int) bool {
	if len(t.entries) != n || t.pageBits != log2(pageBytes) {
		return false
	}
	t.Reset()
	return true
}
