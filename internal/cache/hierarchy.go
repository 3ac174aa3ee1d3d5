package cache

import (
	"dcra/internal/config"
)

// AccessResult describes the outcome of a data-side access.
type AccessResult struct {
	// DoneAt is the cycle at which the value is available (for loads) or
	// the access retires from the memory system (for stores).
	DoneAt uint64
	// Latency is DoneAt - now, always >= 1.
	Latency int

	L1Miss  bool
	L2Miss  bool // missed L2, went to main memory
	TLBMiss bool
}

// mshr tracks one outstanding fill.
type mshr struct {
	lineAddr uint64
	fillAt   uint64
}

// mshrFile is one MSHR file: its outstanding fills in allocation order, and
// the earliest fillAt among them. MSHR files are tiny (tens of entries), so
// lookups are linear sweeps; expiry is lazy, a compare per query until the
// earliest fill is due.
type mshrFile struct {
	ms []mshr
	// next is the earliest fillAt in ms (^0 when ms is empty). Only expire
	// removes entries and it recomputes next, so next is exact, not just a
	// bound: nothing can expire before it.
	next uint64
}

// expire drops the fills completed by cycle now. Until now reaches next
// nothing can have completed, so the sweep is skipped and ms is exactly
// what an eager sweep would have left.
func (f *mshrFile) expire(now uint64) {
	if now < f.next {
		return
	}
	out := f.ms[:0]
	next := ^uint64(0)
	for _, m := range f.ms {
		if m.fillAt > now {
			out = append(out, m)
			next = min(next, m.fillAt)
		}
	}
	f.ms, f.next = out, next
}

// add records a fill of lineAddr arriving at fillAt.
func (f *mshrFile) add(lineAddr, fillAt uint64) {
	f.ms = append(f.ms, mshr{lineAddr, fillAt})
	f.next = min(f.next, fillAt)
}

// find returns the fill time of lineAddr's outstanding fill, if any.
func (f *mshrFile) find(lineAddr uint64) (uint64, bool) {
	for _, m := range f.ms {
		if m.lineAddr == lineAddr {
			return m.fillAt, true
		}
	}
	return 0, false
}

// drain empties the file.
func (f *mshrFile) drain() { f.ms, f.next = f.ms[:0], ^uint64(0) }

// Hierarchy composes L1I, L1D, a unified L2, a TLB and main memory, with an
// MSHR file bounding and merging outstanding memory misses.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	TLB *TLB

	cfg config.Config

	// l2mshrs tracks lines in flight from memory (L2 misses). Accesses to a
	// line already in flight merge: they complete at the original fill time.
	l2mshrs mshrFile
	// l1mshrs tracks lines in flight from L2 into L1D (L1 misses that hit
	// in L2); merging avoids double-counting short misses.
	l1mshrs mshrFile

	// MemMisses counts fills requested from main memory.
	MemMisses uint64
}

// NewHierarchy builds the full memory system for cfg.
func NewHierarchy(cfg config.Config) *Hierarchy {
	h := &Hierarchy{
		L1I: NewCache(cfg.ICache),
		L1D: NewCache(cfg.DCache),
		L2:  NewCache(cfg.L2),
		TLB: NewTLB(cfg.TLBEntries, cfg.PageBytes),
		cfg: cfg,
	}
	h.drainMSHRs()
	return h
}

// AccessI performs an instruction fetch access for the line containing addr.
// It returns the fetch latency and whether it missed L1I. Instruction misses
// are serviced through L2 (and memory on an L2 miss) but are not tracked in
// the data MSHR statistics.
func (h *Hierarchy) AccessI(addr uint64, now uint64) (lat int, miss bool) {
	if h.cfg.PerfectICache {
		return h.cfg.ICache.Latency, false
	}
	lat, miss = h.L1I.Access(addr, now)
	if !miss {
		return lat, false
	}
	l2lat, l2miss := h.L2.Access(addr, now)
	lat += l2lat
	if l2miss {
		lat += h.cfg.MemLatency
	}
	return lat, true
}

// AccessD performs a data access at cycle now. Store handling is identical
// to loads for occupancy purposes (write-allocate); the pipeline decides
// what to do with the returned latency (loads wait for it, stores retire
// from the LSQ at commit regardless).
func (h *Hierarchy) AccessD(addr uint64, now uint64) AccessResult {
	var res AccessResult
	lat := 0

	if ok := h.TLB.Access(addr); !ok {
		res.TLBMiss = true
		lat += h.cfg.TLBPenalty
	}

	if h.cfg.PerfectDCache {
		res.Latency = lat + h.cfg.DCache.Latency
		res.DoneAt = now + uint64(res.Latency)
		return res
	}

	// Merge with an outstanding fill for the same line *before* the tag
	// lookup: Access allocates tags optimistically on a miss, so without
	// this check a second access to an in-flight line would "hit" and see
	// the data long before the fill actually arrives.
	lineAddr := h.L2.LineAddr(addr)
	h.l2mshrs.expire(now)
	if fillAt, ok := h.l2mshrs.find(lineAddr); ok {
		res.L2Miss = true // shares the memory access already in flight
		return h.merge(addr, now, fillAt, res)
	}
	h.l1mshrs.expire(now)
	if fillAt, ok := h.l1mshrs.find(lineAddr); ok {
		return h.merge(addr, now, fillAt, res)
	}

	l1lat, l1miss := h.L1D.Access(addr, now)
	lat += l1lat
	if !l1miss {
		res.Latency = lat
		res.DoneAt = now + uint64(res.Latency)
		return res
	}
	res.L1Miss = true

	l2lat, l2miss := h.L2.Access(addr, now)
	lat += l2lat
	if !l2miss {
		h.l1mshrs.add(lineAddr, now+uint64(lat))
		res.Latency = lat
		res.DoneAt = now + uint64(res.Latency)
		return res
	}

	res.L2Miss = true
	h.MemMisses++
	fillAt := now + uint64(lat+h.cfg.MemLatency)
	// Beyond the MSHR capacity, fills serialise: a new fill can only start
	// once the oldest outstanding one completes. This bounds the queue
	// growth to one memory latency (unlike tail-chaining, which diverges
	// under sustained miss floods).
	if len(h.l2mshrs.ms) >= h.cfg.MSHREntries {
		if earliest := h.l2mshrs.next; earliest+uint64(h.cfg.MemLatency) > fillAt {
			fillAt = earliest + uint64(h.cfg.MemLatency)
		}
	}
	h.l2mshrs.add(lineAddr, fillAt)
	res.DoneAt = fillAt
	res.Latency = int(fillAt - now)
	return res
}

// merge completes a data access to a line whose fill is already in flight,
// arriving at fillAt: the access still touches L1D (keeping LRU and
// statistics honest), misses it, and completes with the fill, at least one
// cycle after now.
func (h *Hierarchy) merge(addr, now, fillAt uint64, res AccessResult) AccessResult {
	h.L1D.Access(addr, now)
	res.L1Miss = true
	res.DoneAt = max(fillAt, now+1)
	res.Latency = int(res.DoneAt - now)
	return res
}

// TouchI functionally touches the instruction path for addr: L1I tags and
// LRU update as a fetch would, falling through to L2 on a miss. No timing
// state (bank ports, MSHRs) and no statistics change, so a detailed window
// resuming after a fast-forwarded region sees warm contents but idle ports.
func (h *Hierarchy) TouchI(addr uint64) {
	if h.cfg.PerfectICache {
		return
	}
	if !h.L1I.Touch(addr) {
		h.L2.Touch(addr)
	}
}

// TouchD functionally touches the data path for addr: TLB, L1D and (on an
// L1D miss) L2, contents only. The counterpart of AccessD for fast-forward.
func (h *Hierarchy) TouchD(addr uint64) {
	h.TLB.Insert(addr)
	if h.cfg.PerfectDCache {
		return
	}
	if !h.L1D.Touch(addr) {
		h.L2.Touch(addr)
	}
}

// OutstandingMem returns the number of in-flight main-memory fills at cycle
// now — the instantaneous memory-level parallelism used for the paper's
// overlapping-miss statistic. Fills queued behind a full MSHR file are
// serialised, not overlapped, so the result is capped at the MSHR count.
func (h *Hierarchy) OutstandingMem(now uint64) int {
	h.l2mshrs.expire(now)
	return min(len(h.l2mshrs.ms), h.cfg.MSHREntries)
}

// PrewarmData inserts every line of [base, base+n) into L2 (and into L1D
// when intoL1 is set). The synthetic measurement window stands for a slice
// of a long-running program, whose resident working set would long since be
// cached; without pre-warming, sparse compulsory misses over a large warm
// region masquerade as capacity misses for the whole run.
func (h *Hierarchy) PrewarmData(base uint64, n int, intoL1 bool) {
	step := uint64(h.cfg.L2.LineBytes)
	for a := base; a < base+uint64(n); a += step {
		h.L2.Touch(a)
		if intoL1 {
			h.L1D.Touch(a)
		}
	}
	for a := base; a < base+uint64(n); a += uint64(h.cfg.PageBytes) {
		h.TLB.Insert(a)
	}
}

// PrewarmCode inserts every line of [base, base+n) into L1I and L2.
func (h *Hierarchy) PrewarmCode(base uint64, n int) {
	step := uint64(h.cfg.L2.LineBytes)
	for a := base; a < base+uint64(n); a += step {
		h.L2.Touch(a)
		h.L1I.Touch(a)
	}
}

// ResetStats clears statistics on all levels (after warmup).
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.MemMisses = 0
	h.TLB.ResetStats()
}

// drainMSHRs empties both MSHR files and the memory-fill counter.
func (h *Hierarchy) drainMSHRs() {
	h.l2mshrs.drain()
	h.l1mshrs.drain()
	h.MemMisses = 0
}

// Reinit rebinds the hierarchy to cfg, reusing every level's storage. It
// reports false when any level's geometry differs from cfg (the hierarchy is
// then in a partially-reset state and must be rebuilt); latencies, penalties
// and MSHR bounds may differ freely.
func (h *Hierarchy) Reinit(cfg config.Config) bool {
	if !h.L1I.Reinit(cfg.ICache) || !h.L1D.Reinit(cfg.DCache) || !h.L2.Reinit(cfg.L2) ||
		!h.TLB.Reinit(cfg.TLBEntries, cfg.PageBytes) {
		return false
	}
	h.cfg = cfg
	h.drainMSHRs()
	return true
}
