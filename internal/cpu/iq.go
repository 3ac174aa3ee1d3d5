package cpu

// iqEntry is one slot of an issue queue. Entries wait until their pending
// operand count drops to zero, then issue oldest-first.
type iqEntry struct {
	used    bool
	thread  int16
	pending int8
	// age is the dispatch order, global across threads. No two allocations
	// share one, so it also identifies the allocation: waiter and ROB
	// references carry it, and a reference whose age no longer matches is
	// stale (its entry issued or was squashed, and the slot may be reused).
	age  uint64
	dseq uint64 // position in the thread's ROB
}

// readyRef is one node of the ready heap. The age snapshot taken at
// markReady time doubles as a validity check: a freed-and-reallocated entry
// gets a fresh age, so stale heap nodes are detected without bookkeeping.
type readyRef struct {
	age uint64
	idx int32
}

// issueQueue is a fixed-capacity pool of iqEntries with a free list and a
// ready min-heap ordered by age. The heap may contain stale nodes after
// squashes or issues; selectOldest pops them lazily, so every operation is
// O(log n) instead of the former full ready-list scan per issue slot.
type issueQueue struct {
	entries  []iqEntry
	freeList []int32
	ready    []readyRef // binary min-heap on age
}

func newIssueQueue(size int) *issueQueue {
	q := &issueQueue{
		entries:  make([]iqEntry, size),
		freeList: make([]int32, size),
		ready:    make([]readyRef, 0, size),
	}
	q.reset()
	return q
}

// full reports whether the queue has no free entries.
func (q *issueQueue) full() bool { return len(q.freeList) == 0 }

// alloc claims an entry; the caller fills the fields it returns, age
// before anything refers to the entry.
func (q *issueQueue) alloc() (int32, *iqEntry) {
	n := len(q.freeList)
	idx := q.freeList[n-1]
	q.freeList = q.freeList[:n-1]
	e := &q.entries[idx]
	*e = iqEntry{used: true}
	return idx, e
}

// freeEntry releases an entry (issue or squash).
func (q *issueQueue) freeEntry(idx int32) {
	e := &q.entries[idx]
	if !e.used {
		return
	}
	e.used = false
	q.freeList = append(q.freeList, idx)
}

// markReady queues idx for issue selection. The entry's age must be final.
func (q *issueQueue) markReady(idx int32) {
	q.ready = append(q.ready, readyRef{age: q.entries[idx].age, idx: idx})
	i := len(q.ready) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.ready[parent].age <= q.ready[i].age {
			break
		}
		q.ready[parent], q.ready[i] = q.ready[i], q.ready[parent]
		i = parent
	}
}

// stale reports whether a heap node no longer refers to a live ready entry
// (it issued, was squashed, or its slot was recycled).
func (q *issueQueue) stale(r readyRef) bool {
	e := &q.entries[r.idx]
	return !e.used || e.pending != 0 || e.age != r.age
}

// selectOldest returns the index of the oldest valid ready entry, or -1.
// Stale heap nodes are popped on the way; the returned entry stays at the
// heap root until the caller issues it (popRoot) — repeated calls per cycle
// implement multi-issue.
func (q *issueQueue) selectOldest() int32 {
	for len(q.ready) > 0 {
		if q.stale(q.ready[0]) {
			q.popRoot()
			continue
		}
		return q.ready[0].idx
	}
	return -1
}

// popRoot removes the heap root and restores heap order: the node moved
// into the root's place sifts down.
func (q *issueQueue) popRoot() {
	last := len(q.ready) - 1
	q.ready[0] = q.ready[last]
	q.ready = q.ready[:last]
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		small := j
		if l < last && q.ready[l].age < q.ready[small].age {
			small = l
		}
		if r < last && q.ready[r].age < q.ready[small].age {
			small = r
		}
		if small == j {
			return
		}
		q.ready[j], q.ready[small] = q.ready[small], q.ready[j]
		j = small
	}
}

// reset puts the queue in its initial state — every entry free, the free
// list in its pop order, the ready heap empty — without reallocating.
// newIssueQueue ends with it, so a reset queue is bit-identical to a freshly
// built one.
func (q *issueQueue) reset() {
	clear(q.entries)
	q.freeList = q.freeList[:len(q.entries)]
	for i := range q.freeList {
		q.freeList[i] = int32(len(q.entries) - 1 - i)
	}
	q.ready = q.ready[:0]
}
