package cpu

// iqEntry is one slot of an issue queue. Entries wait until their pending
// operand count drops to zero, then issue oldest-first.
type iqEntry struct {
	used    bool
	stamp   uint64 // unique allocation stamp, invalidates stale waiter refs
	thread  int16
	pending int8
	age     uint64 // dispatch order, global across threads
	dseq    uint64 // position in the thread's ROB
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
	stampGen uint64
}

func newIssueQueue(size int) *issueQueue {
	q := &issueQueue{
		entries:  make([]iqEntry, size),
		freeList: make([]int32, size),
		ready:    make([]readyRef, 0, size),
	}
	for i := range q.freeList {
		q.freeList[i] = int32(size - 1 - i)
	}
	return q
}

// full reports whether the queue has no free entries.
func (q *issueQueue) full() bool { return len(q.freeList) == 0 }

// alloc claims an entry; the caller fills the fields it returns.
func (q *issueQueue) alloc() (int32, *iqEntry) {
	n := len(q.freeList)
	idx := q.freeList[n-1]
	q.freeList = q.freeList[:n-1]
	q.stampGen++
	e := &q.entries[idx]
	*e = iqEntry{used: true, stamp: q.stampGen}
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
// heap root until the caller issues it (removeFromReady) — repeated calls
// per cycle implement multi-issue.
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

// removeFromReady drops idx from the ready heap after it issues. The issued
// entry is always the heap root (issue selects via selectOldest), so this
// is a root pop; the linear fallback only guards against misuse.
func (q *issueQueue) removeFromReady(idx int32) {
	if len(q.ready) > 0 && q.ready[0].idx == idx {
		q.popRoot()
		return
	}
	for i, r := range q.ready {
		if r.idx == idx {
			q.deleteAt(i)
			return
		}
	}
}

// popRoot removes the heap root and restores heap order.
func (q *issueQueue) popRoot() { q.deleteAt(0) }

// deleteAt removes node i, re-establishing the heap invariant.
func (q *issueQueue) deleteAt(i int) {
	last := len(q.ready) - 1
	q.ready[i] = q.ready[last]
	q.ready = q.ready[:last]
	if i >= last {
		return
	}
	// Sift up (the moved node may be smaller than its new parent)...
	j := i
	for j > 0 {
		parent := (j - 1) / 2
		if q.ready[parent].age <= q.ready[j].age {
			break
		}
		q.ready[parent], q.ready[j] = q.ready[j], q.ready[parent]
		j = parent
	}
	if j != i {
		return
	}
	// ...or down.
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

// reset restores the queue to its post-construction state — every entry
// free, the free list in original pop order, the ready heap empty, stamps
// rewound — without reallocating. A reset queue behaves bit-identically to a
// freshly built one.
func (q *issueQueue) reset() {
	clear(q.entries)
	q.freeList = q.freeList[:len(q.entries)]
	for i := range q.freeList {
		q.freeList[i] = int32(len(q.entries) - 1 - i)
	}
	q.ready = q.ready[:0]
	q.stampGen = 0
}
