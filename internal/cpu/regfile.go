package cpu

// waiterRef identifies an issue-queue entry waiting on a physical register.
// The age detects stale references left behind by squashes: a wakeup only
// fires if the entry's age, which identifies its allocation, still matches.
type waiterRef struct {
	queue int32
	idx   int32
	age   uint64
}

// regFile models one physical register file (integer or FP) as a free list
// plus a ready scoreboard and per-register waiter lists.
//
// The allocatable pool holds only the *rename* registers: the architectural
// registers backing each thread's committed state are reserved off the top
// and never circulate, matching the paper's "physical = architectural x
// threads + rename" accounting.
type regFile struct {
	free    []int32
	ready   []bool
	waiters [][]waiterRef
}

// newRegFile builds a file with `rename` allocatable registers.
func newRegFile(rename int) *regFile {
	f := &regFile{
		free:    make([]int32, rename),
		ready:   make([]bool, rename),
		waiters: make([][]waiterRef, rename),
	}
	f.reset()
	return f
}

// available returns the number of free registers.
func (f *regFile) available() int { return len(f.free) }

// alloc pops a free register, marking it not-ready. The caller has checked
// available first.
func (f *regFile) alloc() int32 {
	n := len(f.free)
	reg := f.free[n-1]
	f.free = f.free[:n-1]
	f.ready[reg] = false
	f.waiters[reg] = f.waiters[reg][:0]
	return reg
}

// release returns a register to the pool. Its value is architecturally
// committed (or squashed), so readiness is irrelevant until reallocation.
func (f *regFile) release(reg int32) {
	f.ready[reg] = true // consumers that already captured it see "ready"
	f.free = append(f.free, reg)
}

// markReady flips the scoreboard bit and returns the waiter list for the
// caller to process (stale refs are filtered by age at wake time). The
// backing array stays with the register for reuse — nilling it out here
// made every waiter chain reallocate from scratch, ~25% of all bytes
// allocated by a full experiment run. No waiter is added between this
// truncation and the caller finishing with the returned slice: addWaiter
// only runs during dispatch, behind an isReady check that now fails.
func (f *regFile) markReady(reg int32) []waiterRef {
	f.ready[reg] = true
	w := f.waiters[reg]
	f.waiters[reg] = w[:0]
	return w
}

// addWaiter registers an issue-queue entry to be woken when reg completes.
func (f *regFile) addWaiter(reg int32, w waiterRef) {
	f.waiters[reg] = append(f.waiters[reg], w)
}

// isReady reports whether reg has produced its value.
func (f *regFile) isReady(reg int32) bool { return f.ready[reg] }

// reset puts the file in its initial state — all registers free, scoreboard
// cleared, waiter chains truncated (their backing arrays stay with the
// register for reuse). newRegFile ends with it.
func (f *regFile) reset() {
	f.free = f.free[:len(f.ready)]
	for i := range f.free {
		// Pop order is LIFO; seed so register 0 comes out first (cosmetic).
		f.free[i] = int32(len(f.free) - 1 - i)
	}
	clear(f.ready)
	for i := range f.waiters {
		f.waiters[i] = f.waiters[i][:0]
	}
}
