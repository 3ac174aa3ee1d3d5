package cpu

import "dcra/internal/isa"

// entryState tracks a uop's progress through the back end.
type entryState uint8

const (
	stateDispatched entryState = iota // waiting in an issue queue
	stateIssued                       // executing
	stateDone                         // completed, awaiting commit
)

// robEntry is one reorder-buffer slot.
type robEntry struct {
	u    isa.Uop
	dseq uint64 // per-thread dispatch sequence number
	gen  uint32 // squash generation at dispatch

	state     entryState
	destPhys  int32 // physical register allocated for the destination, -1 if none
	destClass isa.RegClass

	iqQueue int32  // queue holding the entry while waiting (-1 once issued)
	iqIdx   int32  // index within that queue
	iqAge   uint64 // the queue entry's age, which identifies its allocation

	mispredicted bool  // branch resolved against its prediction
	hadL1Miss    bool  // load missed L1D
	hadL2Miss    bool  // load went to main memory
	l1Counted    bool  // pendingL1D incremented for this load
	l2Counted    bool  // pendingL2 incremented for this load
	rasTop       int32 // RAS depth snapshot at fetch, restored on squash
}

// threadROB is a per-thread FIFO window into the shared ROB pool. Entries
// are addressed by dseq; the ring is sized for the whole shared ROB so a
// single thread may fill it.
type threadROB struct {
	ring    []robEntry
	mask    uint64
	headSeq uint64 // oldest in-flight dseq
	tailSeq uint64 // next dseq to allocate
}

func newThreadROB(capacity int) *threadROB {
	size := pow2AtLeast(capacity)
	return &threadROB{ring: make([]robEntry, size), mask: uint64(size - 1)}
}

func (r *threadROB) count() int { return int(r.tailSeq - r.headSeq) }

// at returns the entry with the given dseq; the caller must ensure it is in
// [headSeq, tailSeq).
func (r *threadROB) at(dseq uint64) *robEntry { return &r.ring[dseq&r.mask] }

// valid reports whether dseq names a live entry of generation gen.
func (r *threadROB) valid(dseq uint64, gen uint32) bool {
	return dseq >= r.headSeq && dseq < r.tailSeq && r.ring[dseq&r.mask].gen == gen
}

// push allocates the next entry and returns it with only dseq set: the
// slot still holds whatever entry last used it, and the caller (tryDispatch)
// sets every other field.
func (r *threadROB) push() *robEntry {
	e := &r.ring[r.tailSeq&r.mask]
	e.dseq = r.tailSeq
	r.tailSeq++
	return e
}

// head returns the oldest entry, or nil when empty.
func (r *threadROB) head() *robEntry {
	if r.headSeq == r.tailSeq {
		return nil
	}
	return r.at(r.headSeq)
}

// popHead retires the oldest entry.
func (r *threadROB) popHead() { r.headSeq++ }

// drain empties the window without rewinding the sequence counters, so dseqs
// of dropped entries are never reissued: stale calendar events referencing
// them fail the valid() range check forever.
func (r *threadROB) drain() { r.headSeq = r.tailSeq }

// reset empties the window and rewinds the sequence counters to zero. Ring
// contents need no clearing: push and tryDispatch overwrite every field of
// an entry before any read, and valid() only consults the live
// [headSeq, tailSeq) range.
func (r *threadROB) reset() { r.headSeq, r.tailSeq = 0, 0 }

// rollbackTo discards entries with dseq > after (squash). The caller walks
// the discarded range first to release their resources.
func (r *threadROB) rollbackTo(after uint64) {
	if after+1 < r.tailSeq {
		r.tailSeq = after + 1
	}
}
