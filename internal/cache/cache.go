// Package cache implements the simulated memory hierarchy: set-associative
// caches with LRU replacement and banking, MSHRs that merge and bound
// outstanding misses, a TLB, and a fixed-latency main memory.
//
// The model is latency-oriented: an access performed at cycle `now` returns
// the cycle at which the data is available plus the miss classification.
// State (tags, LRU, MSHRs) updates immediately, which is the standard
// trace-driven simplification — it keeps the hierarchy deterministic and
// independent of the pipeline's internal scheduling.
package cache

import (
	"fmt"

	"dcra/internal/config"
)

// line is one cache line's bookkeeping.
type line struct {
	tag   uint64
	valid bool
	lru   uint64 // last-touch stamp; larger = more recent
}

// Cache is a single set-associative, banked cache level.
type Cache struct {
	cfg      config.CacheConfig
	sets     []line // sets*assoc, laid out set-major
	assoc    int
	setMask  uint64
	lineBits uint
	stamp    uint64

	// bankBusy[b] is the next cycle at which bank b can accept an access.
	bankBusy []uint64
	bankMask uint64

	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache level from its configuration.
func NewCache(cfg config.CacheConfig) *Cache {
	sets := cfg.Sets()
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	banks := cfg.Banks
	if banks&(banks-1) != 0 {
		panic(fmt.Sprintf("cache: bank count %d not a power of two", banks))
	}
	c := &Cache{
		cfg:      cfg,
		sets:     make([]line, sets*cfg.Assoc),
		assoc:    cfg.Assoc,
		setMask:  uint64(sets - 1),
		bankBusy: make([]uint64, banks),
		bankMask: uint64(banks - 1),
		lineBits: log2(cfg.LineBytes),
	}
	return c
}

// LineAddr returns the line-aligned address for addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineBits }

func (c *Cache) set(lineAddr uint64) []line {
	s := lineAddr & c.setMask
	return c.sets[s*uint64(c.assoc) : (s+1)*uint64(c.assoc)]
}

// Probe reports whether the line containing addr is present, without
// changing any state. Only tests call it.
func (c *Cache) Probe(addr uint64) bool {
	la := c.LineAddr(addr)
	for i := range c.set(la) {
		w := &c.set(la)[i]
		if w.valid && w.tag == la {
			return true
		}
	}
	return false
}

// Access looks up addr at cycle `now`, allocating on miss (write-allocate
// for stores). It returns the bank-adjusted hit latency and whether the
// access missed. Miss *service* latency is the caller's concern (the
// Hierarchy composes levels and MSHRs).
func (c *Cache) Access(addr uint64, now uint64) (lat int, miss bool) {
	c.Accesses++
	lat = c.cfg.Latency + c.bankDelay(c.LineAddr(addr), now)
	if c.Touch(addr) {
		return lat, false
	}
	c.Misses++
	return lat, true
}

// Touch performs a functional access: tags and LRU update as in Access
// (allocating on miss into the first invalid way, else the LRU one), but no
// bank occupancy and no statistics. It reports a hit. Access is Touch plus
// those; fast-forward calls Touch alone to keep long-lived cache contents
// warm across skipped regions without perturbing the timing state the next
// detailed window resumes from, and prewarming calls it to fill resident
// working sets before simulation starts.
func (c *Cache) Touch(addr uint64) bool {
	c.stamp++
	la := c.LineAddr(addr)
	set := c.set(la)
	for i := range set {
		if set[i].valid && set[i].tag == la {
			set[i].lru = c.stamp
			return true
		}
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if victim == -1 || set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = line{tag: la, valid: true, lru: c.stamp}
	return false
}

// bankDelay models single-ported banks: an access to a busy bank waits.
func (c *Cache) bankDelay(lineAddr, now uint64) int {
	b := lineAddr & c.bankMask
	delay := 0
	if c.bankBusy[b] > now {
		delay = int(c.bankBusy[b] - now)
	}
	c.bankBusy[b] = now + uint64(delay) + 1
	return delay
}

// MissRate returns misses per access in percent.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return 100 * float64(c.Misses) / float64(c.Accesses)
}

// ResetStats clears statistics but keeps cache contents (used after warmup).
func (c *Cache) ResetStats() { c.Accesses, c.Misses = 0, 0 }

// Reset restores the cache to its post-construction state without
// reallocating: every line invalidated, bank ports idle, LRU stamps and
// statistics zeroed. A reset cache behaves bit-identically to a freshly
// built one.
func (c *Cache) Reset() {
	clear(c.sets)
	clear(c.bankBusy)
	c.stamp = 0
	c.ResetStats()
}

// Reinit rebinds the cache to cfg, reusing its storage. It reports false —
// leaving the cache untouched — when cfg's geometry does not match the
// backing arrays; only latency may differ between the old and new config.
func (c *Cache) Reinit(cfg config.CacheConfig) bool {
	if cfg.Geometry() != c.cfg.Geometry() {
		return false
	}
	c.cfg = cfg
	c.Reset()
	return true
}
