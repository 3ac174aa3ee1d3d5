package cpu

import "dcra/internal/isa"

// This file implements the functional fast-forward path behind SMARTS-style
// sampled simulation (internal/sample): advance a thread's canonical stream
// by committed-uop count while exercising only the long-lived
// microarchitectural state that carries across measurement windows — cache
// and TLB contents and the branch predictor's tables — and skipping the
// detailed front-end/dispatch/issue/commit pipeline entirely.
//
// Determinism is the same contract as everywhere else: fast-forward consumes
// the identical canonical uop sequence the detailed pipeline would commit
// (wrong-path fetch never advances the canonical cursor), so two same-seed
// runs with identical fast-forward schedules are bit-identical.

// nextCommitIndex returns the canonical stream index of thread t's oldest
// in-flight uop — the uop the thread would commit next — falling back to the
// fetch cursor when nothing canonical is in flight. Wrong-path entries carry
// no canonical index and are skipped.
func (m *Machine) nextCommitIndex(t int) uint64 {
	r := m.rob[t]
	for ds := r.headSeq; ds < r.tailSeq; ds++ {
		if e := r.at(ds); !e.u.WrongPath {
			return e.u.Index
		}
	}
	fe := &m.fe[t]
	for i := 0; i < fe.count; i++ {
		if u := &fe.ring[(fe.head+i)&fe.mask].u; !u.WrongPath {
			return u.Index
		}
	}
	return m.threads[t].fetchIdx
}

// FastForwardThread functionally advances thread t by n committed uops.
// In-flight state is drained first (squashed back to the commit point, the
// fetch cursor rewound to the next-to-commit uop), then each skipped uop
// touches the I-cache once per line, trains the branch predictor, and
// touches the data hierarchy for loads and stores. Timing state — cycle
// count, bank ports, MSHRs, event calendar — does not advance; the next
// detailed window resumes from warm contents and an empty pipeline.
//
// Statistics other than FastForwarded and the drain's Squashed count are
// untouched: fast-forwarded uops are not Committed.
func (m *Machine) FastForwardThread(t int, n uint64) {
	m.ffRewind(t)
	m.ffAdvance(t, n)
}

// ffRewind squashes thread t's in-flight state back to the commit point and
// rewinds the fetch cursor to the next-to-commit uop.
func (m *Machine) ffRewind(t int) {
	idx := m.nextCommitIndex(t)
	m.drainThread(t)
	m.threads[t].fetchIdx = idx
	m.threads[t].icacheReadyAt = 0
	m.threads[t].ffLastLine = ^uint64(0)
	m.threads[t].ffLastData = ^uint64(0)
}

// ffAdvance walks n canonical uops of a rewound thread through the
// functional-warming path. Uops already synthesised (between the commit
// point and the generation frontier) are consumed from the retained window;
// past the frontier Stream.SkipUop takes over, generating each uop without
// retention — identical draws, so the canonical stream is preserved
// bit-for-bit, minus the buffer bookkeeping.
func (m *Machine) ffAdvance(t int, n uint64) {
	ts := &m.threads[t]
	stream := ts.stream
	// The same-line collapse cursors live in the thread state so the
	// suppression carries across interleave quanta: a sequential walk that
	// straddles a quantum boundary still collapses to one touch per line.
	// (Another thread may have touched the hierarchy in between, but a
	// re-touch would only refresh a near-MRU LRU stamp — the same argument
	// that justifies the collapse within a quantum.)
	lastLine := ts.ffLastLine
	lastData := ts.ffLastData
	var scratch isa.Uop
	for i := uint64(0); i < n; i++ {
		u := &scratch
		if ts.fetchIdx < stream.Frontier() {
			u = stream.At(ts.fetchIdx)
			ts.fetchIdx++
			stream.Release(ts.fetchIdx)
		} else {
			stream.SkipUopWarm(&scratch)
			ts.fetchIdx++
		}
		if line := u.PC >> 6; line != lastLine {
			m.hier.TouchI(u.PC)
			lastLine = line
		}
		switch u.Class {
		case isa.OpBranch:
			m.pred.Predict(t, u)
		case isa.OpLoad, isa.OpStore:
			// Back-to-back accesses to one line (sequential walks) collapse
			// into a single touch; the skipped re-touches would only refresh
			// an already-MRU LRU stamp.
			if line := u.Addr >> 6; line != lastData {
				m.hier.TouchD(u.Addr)
				lastData = line
			}
		}
	}
	ts.ffLastLine = lastLine
	ts.ffLastData = lastData
	m.st.Threads[t].FastForwarded += n
}

// ffSkim advances thread t's canonical stream by n uops with no functional
// warming at all: the stream cursor and its RNG state move (identical draws,
// so uop N keeps identical content), but caches, TLBs and the predictor see
// nothing. This is the warm-tail bulk path — cache state is neither refreshed
// nor perturbed, it simply ages in place until the warm tail re-trains
// recency right before the measurement window.
func (m *Machine) ffSkim(t int, n uint64) {
	ts := &m.threads[t]
	stream := ts.stream
	if ts.fetchIdx < stream.Frontier() {
		// Consume what the detailed pipeline already synthesised first.
		k := stream.Frontier() - ts.fetchIdx
		if k > n {
			k = n
		}
		ts.fetchIdx += k
		stream.Release(ts.fetchIdx)
		n -= k
		m.st.Threads[t].FastForwarded += k
	}
	if n > 0 {
		var scratch isa.Uop
		stream.SkipUops(n, &scratch)
		ts.fetchIdx += n
		m.st.Threads[t].FastForwarded += n
	}
}

// ffChunk is the round-robin quantum of a multi-thread fast-forward: threads
// advance in interleaved chunks so the shared caches see all threads'
// footprints mingled, as concurrent detailed execution would leave them. A
// thread-at-a-time walk would let the last thread's working set evict the
// others' lines before every measurement window, biasing sampled IPC low.
const ffChunk = 128

// FastForwardBudgetsTail advances thread t by budgets[t] committed uops
// (parked threads and missing entries skip nothing) with warm-tail
// warming: each thread's gap body beyond the last tail uops advances with
// ffSkim (stream draws only — no cache, TLB or predictor training), and
// only the final tail uops before the next measurement window run the full
// functional-warming path, interleaved in ffChunk-uop round-robin quanta so
// threads with unequal budgets — e.g. rate-proportional sampling gaps —
// still mingle their cache footprints. tail == 0 skims everything; a tail
// at least as large as every budget warms the whole gap (full warming).
// Every non-parked thread is rewound to its commit point even on a zero
// budget, so the machine restarts uniformly. The schedule is a pure
// function of the budget vector and tail, keeping same-seed sampled runs
// bit-identical.
//
// The parity argument: during the skim the hierarchy is neither refreshed
// nor perturbed, so lines resident at gap entry stay resident; the warm tail
// then replays the most recent working set, restoring LRU recency and
// predictor history before measurement. What the skim loses is the gap
// body's evictions and insertions — long-lived L2 state barely turns over
// within one gap, so a tail covering a few L1 reloads of the hot set holds
// parity (verified across the Figure 5 sweep; see PERFORMANCE.md).
func (m *Machine) FastForwardBudgetsTail(budgets []uint64, tail uint64) {
	rem := m.ffBuf[:0]
	for t := 0; t < m.nt; t++ {
		b := uint64(0)
		if t < len(budgets) {
			b = budgets[t]
		}
		rem = append(rem, b)
	}
	var total uint64
	for t := 0; t < m.nt; t++ {
		if m.threads[t].parked {
			rem[t] = 0
			continue
		}
		m.ffRewind(t)
		total += rem[t]
	}
	// Skim phase: straight per-thread, no interleave — ffSkim touches no
	// shared state, so quantum mingling buys nothing and the schedule stays
	// a pure function of the budget vector either way.
	for t := 0; t < m.nt; t++ {
		if skim := rem[t]; skim > tail {
			skim -= tail
			m.ffSkim(t, skim)
			rem[t] = tail
			total -= skim
		}
	}
	m.ffWalk(rem, total)
}

// ffWalk drains the remaining budgets through full functional warming in
// interleaved ffChunk-uop round-robin quanta.
func (m *Machine) ffWalk(rem []uint64, total uint64) {
	for total > 0 {
		for t := 0; t < m.nt; t++ {
			step := rem[t]
			if step == 0 {
				continue
			}
			if step > ffChunk {
				step = ffChunk
			}
			m.ffAdvance(t, step)
			rem[t] -= step
			total -= step
		}
	}
}
