package cpu

import (
	"dcra/internal/isa"
)

// step advances the machine one cycle. Stages run back-to-front (commit
// first, fetch last) so each stage sees the state the previous cycle left.
func (m *Machine) step() {
	m.cycle++
	m.processEvents()
	m.commit()
	m.issue()
	m.dispatch()
	m.pol.Tick(m)
	m.fetch()
	m.sample()
	m.st.Cycles++
}

// ---- completion and miss-detection events ----

// processEvents delivers every event scheduled at or before the current
// cycle, walking the calendar ring one bucket per cycle. Delivery never
// pushes new events (issue is the only producer), so draining a bucket
// in-place is safe.
func (m *Machine) processEvents() {
	q := &m.events
	for q.base <= m.cycle {
		b := q.base & eventRingMask
		bucket := q.buckets[b]
		for i := range bucket {
			m.deliver(&bucket[i])
		}
		q.buckets[b] = bucket[:0]
		q.base++
		if len(q.overflow) > 0 {
			q.ripen()
		}
	}
}

func (m *Machine) deliver(ev *event) {
	t := int(ev.thread)
	r := m.rob[t]
	if !r.valid(ev.dseq, ev.gen) {
		return // squashed
	}
	e := r.at(ev.dseq)
	switch ev.kind {
	case evDetectL1:
		if e.state != stateDone && !e.l1Counted {
			e.l1Counted = true
			m.pendingL1D[t]++
		}
	case evDetectL2:
		if e.state != stateDone && !e.l2Counted {
			e.l2Counted = true
			m.pendingL2[t]++
		}
	case evComplete:
		m.complete(t, e)
	}
}

func (m *Machine) complete(t int, e *robEntry) {
	e.state = stateDone
	m.dropPending(t, e)
	if e.destPhys >= 0 {
		rf := m.regs[regIndex(e.destClass)]
		for _, w := range rf.markReady(e.destPhys) {
			q := m.iqs[w.queue]
			ent := &q.entries[w.idx]
			if !ent.used || ent.age != w.age {
				continue // stale waiter from a squashed consumer
			}
			ent.pending--
			if ent.pending == 0 {
				q.markReady(w.idx)
			}
		}
	}
	if e.u.Class == isa.OpLoad && m.loadObs != nil && !e.u.WrongPath {
		m.loadObs.LoadResolved(m, t, e.u.PC, e.hadL1Miss, e.hadL2Miss)
	}
	if e.u.Class == isa.OpBranch && !e.u.WrongPath && e.mispredicted {
		m.squashAfter(t, e.dseq, e.u.Index+1)
	}
}

// dropPending takes e's detected misses off thread t's pending-miss
// counters: when e completes, or when a squash discards it first.
func (m *Machine) dropPending(t int, e *robEntry) {
	if e.l1Counted {
		e.l1Counted = false
		m.pendingL1D[t]--
	}
	if e.l2Counted {
		e.l2Counted = false
		m.pendingL2[t]--
	}
}

// ---- commit ----

func (m *Machine) commit() {
	budget := m.cfg.CommitWidth
	start := m.commitRR
	m.commitRR++
	if m.commitRR == m.nt {
		m.commitRR = 0
	}
	// Gather the threads with a committable head once, in rotation order.
	// Completion events only land in processEvents, so a head that is not
	// done now cannot become done within this cycle: the repeated passes
	// below walk only live candidates instead of re-probing parked and
	// empty threads.
	live := m.commitBuf[:0]
	for i := 0; i < m.nt; i++ {
		t := start + i
		if t >= m.nt {
			t -= m.nt
		}
		if e := m.rob[t].head(); e != nil && e.state == stateDone {
			live = append(live, int32(t))
		}
	}
	for budget > 0 && len(live) > 0 {
		n := 0
		for _, t32 := range live {
			if budget == 0 {
				break
			}
			t := int(t32)
			r := m.rob[t] // one ring lookup per committed uop, not three
			m.commitEntry(t, r.head())
			r.popHead()
			budget--
			if e := r.head(); e != nil && e.state == stateDone {
				live[n] = t32
				n++
			}
		}
		live = live[:n]
	}
}

func (m *Machine) commitEntry(t int, e *robEntry) {
	m.release(t, e)
	u := &e.u
	m.threads[t].stream.Release(u.Index + 1)

	if m.commitObs != nil {
		m.commitObs(t, u)
	}

	ts := &m.st.Threads[t]
	ts.Committed++
	switch u.Class {
	case isa.OpBranch:
		ts.Branches++
		if e.mispredicted {
			ts.BranchMispred++
		}
	case isa.OpLoad:
		ts.Loads++
	case isa.OpStore:
		ts.Stores++
	}
	if e.hadL1Miss {
		ts.L1DMisses++
	}
	if e.hadL2Miss {
		ts.L2DMisses++
	}
}

// release returns e's ROB slot and destination register to the shared pools
// and clears its producer-ring slot, so consumers dispatched from now on
// read the value as ready: when e commits, and for each entry a squash
// reclaims. Wrong-path uops never take a producer slot; a committing uop is
// never one.
func (m *Machine) release(t int, e *robEntry) {
	use := &m.usage[t]
	m.robUsed--
	use[RROB]--
	if e.destPhys >= 0 {
		ri := regIndex(e.destClass)
		m.regs[ri].release(e.destPhys)
		use[RIntRegs+Resource(ri)]--
	}
	if !e.u.WrongPath {
		pe := &m.prod[t][e.u.Index&m.prodMask]
		if pe.idx == e.u.Index {
			pe.idx = ^uint64(0)
		}
	}
}

// ---- issue ----

func (m *Machine) issue() {
	fuLeft := [3]int{m.cfg.IntUnits, m.cfg.FPUnits, m.cfg.LSUnits}
	budget := m.cfg.IssueWidth
	// Peek each queue's oldest ready entry once and re-peek only the queue
	// that issued: nothing during issue makes new entries ready (completion
	// wakeups land in processEvents, dispatch runs later), so the cached
	// heads of the other queues cannot change. A queue whose ports are
	// exhausted is retired from the tournament outright.
	var oldest [3]int32
	for q := 0; q < 3; q++ {
		if fuLeft[q] > 0 {
			oldest[q] = m.iqs[q].selectOldest()
		} else {
			oldest[q] = -1
		}
	}
	for budget > 0 {
		bestQ := -1
		var bestAge uint64
		for q := 0; q < 3; q++ {
			idx := oldest[q]
			if idx < 0 {
				continue
			}
			age := m.iqs[q].entries[idx].age
			if bestQ == -1 || age < bestAge {
				bestQ, bestAge = q, age
			}
		}
		if bestQ == -1 {
			return
		}
		m.issueEntry(bestQ, oldest[bestQ])
		fuLeft[bestQ]--
		budget--
		if fuLeft[bestQ] > 0 {
			oldest[bestQ] = m.iqs[bestQ].selectOldest()
		} else {
			oldest[bestQ] = -1
		}
	}
}

func (m *Machine) issueEntry(q int, idx int32) {
	iq := m.iqs[q]
	ent := &iq.entries[idx]
	t := int(ent.thread)
	e := m.rob[t].at(ent.dseq)
	iq.popRoot() // idx is the root: selectOldest returned it
	iq.freeEntry(idx)
	m.usage[t][q]--
	e.state = stateIssued
	e.iqQueue = -1
	m.st.Threads[t].Issued++

	// The bypass network forwards results to dependents as they complete,
	// so producer-to-consumer latency is the execution latency alone; the
	// register-read stages add to the branch-resolution penalty (squash
	// happens later) but not to dependence chains.
	now := m.cycle
	var done uint64
	switch e.u.Class {
	case isa.OpIntALU:
		done = now + uint64(m.cfg.IntALULat)
	case isa.OpBranch:
		done = now + uint64(m.cfg.RegReadCycle) + uint64(m.cfg.IntALULat)
	case isa.OpIntMul:
		done = now + uint64(m.cfg.IntMulLat)
	case isa.OpFPALU:
		done = now + uint64(m.cfg.FPALULat)
	case isa.OpFPMul:
		done = now + uint64(m.cfg.FPMulLat)
	case isa.OpLoad:
		res := m.hier.AccessD(e.u.Addr, now)
		done = res.DoneAt
		e.hadL1Miss = res.L1Miss
		e.hadL2Miss = res.L2Miss
		if !e.u.WrongPath {
			if res.L1Miss {
				m.events.push(event{
					at: now + uint64(m.cfg.DCache.Latency) + 1, thread: int32(t),
					kind: evDetectL1, dseq: e.dseq, gen: e.gen,
				})
			}
			if res.L2Miss {
				m.events.push(event{
					at: now + uint64(m.cfg.DCache.Latency+m.cfg.L2.Latency) + 1, thread: int32(t),
					kind: evDetectL2, dseq: e.dseq, gen: e.gen,
				})
			}
		}
		if res.TLBMiss {
			m.st.Threads[t].TLBMisses++
		}
	case isa.OpStore:
		// Stores update the hierarchy for occupancy/statistics but retire
		// into a store buffer: they do not hold the pipeline for the miss.
		res := m.hier.AccessD(e.u.Addr, now)
		e.hadL1Miss = res.L1Miss
		e.hadL2Miss = res.L2Miss
		done = now + 1
	default: // OpNop
		done = now + 1
	}
	if done <= now {
		done = now + 1
	}
	m.events.push(event{at: done, thread: int32(t), kind: evComplete, dseq: e.dseq, gen: e.gen})
}

// ---- dispatch (rename + allocate) ----

func regIndex(c isa.RegClass) int {
	if c == isa.RegFP {
		return 1
	}
	return 0
}

func (m *Machine) dispatch() {
	if m.part != nil {
		// Hoist the per-thread caps once per cycle. Cap is a pure function
		// of state computed in the policy's Tick (DCRA's classification,
		// SRA's constants), so sampling it per dispatch attempt would only
		// repeat identical interface calls.
		for t := 0; t < m.nt; t++ {
			caps := &m.capBuf[t]
			for r := Resource(0); r < NumResources; r++ {
				caps[r] = m.part.Cap(m, t, r)
			}
		}
	}
	budget := m.cfg.FetchWidth
	start := m.fetchRR // reuse rotation for fairness
	// Gather the threads with a dispatchable head once, in rotation order.
	// Fetch runs after dispatch and readyAt only decreases with time, so a
	// thread with an empty pipe or a not-yet-decoded head cannot become
	// dispatchable within this cycle; a thread that stalls on resources is
	// dropped from the list (it stays stalled until something frees, which
	// only commit/issue — earlier stages — can do).
	live := m.dispBuf[:0]
	for i := 0; i < m.nt; i++ {
		t := start + i
		if t >= m.nt {
			t -= m.nt
		}
		fe := &m.fe[t]
		if fe.empty() || fe.peek().readyAt > m.cycle {
			continue
		}
		live = append(live, int32(t))
	}
	for budget > 0 && len(live) > 0 {
		n := 0
		for _, t32 := range live {
			if budget == 0 {
				break
			}
			t := int(t32)
			fe := &m.fe[t]
			if !m.tryDispatch(t, fe.peek()) {
				m.st.Threads[t].DispatchStalls++
				continue
			}
			fe.pop()
			budget--
			if !fe.empty() && fe.peek().readyAt <= m.cycle {
				live[n] = t32
				n++
			}
		}
		live = live[:n]
	}
}

// tryDispatch allocates every back-end resource the uop needs, atomically.
func (m *Machine) tryDispatch(t int, fe *feEntry) bool {
	// Shared-pool availability, cheapest check first; the queue and register
	// class are derived only once the preceding check has passed, so a
	// stalled thread pays for no more classification than it needs.
	if m.robUsed >= m.cfg.ROBSize {
		return false
	}
	u := &fe.u
	q := isa.QueueOf(u.Class)
	if m.iqs[q].full() {
		return false
	}
	destCls := u.DestRegClass()
	ri := -1
	if destCls != isa.RegNone {
		ri = regIndex(destCls)
		if m.regs[ri].available() == 0 {
			return false
		}
	}
	// Per-thread caps (SRA-style partitioning), hoisted by dispatch.
	use := &m.usage[t]
	if m.part != nil {
		caps := &m.capBuf[t]
		if c := caps[RROB]; c > 0 && use[RROB] >= c {
			return false
		}
		if c := caps[Resource(q)]; c > 0 && use[Resource(q)] >= c {
			return false
		}
		if ri >= 0 {
			if c := caps[RIntRegs+Resource(ri)]; c > 0 && use[RIntRegs+Resource(ri)] >= c {
				return false
			}
		}
	}

	// Allocate ROB. push leaves the slot's old contents in place, so every
	// field is set here or below (iqQueue, iqIdx, iqAge).
	e := m.rob[t].push()
	e.u = *u
	e.gen = m.threads[t].gen
	e.state = stateDispatched
	e.destPhys, e.destClass = -1, destCls
	e.mispredicted = fe.mispredicted
	e.hadL1Miss, e.hadL2Miss = false, false
	e.l1Counted, e.l2Counted = false, false
	e.rasTop = fe.rasTop
	m.robUsed++
	use[RROB]++

	// Allocate destination register.
	if ri >= 0 {
		phys := m.regs[ri].alloc()
		e.destPhys = phys
		use[RIntRegs+Resource(ri)]++
		if !u.WrongPath {
			m.prod[t][u.Index&m.prodMask] = prodEntry{idx: u.Index, phys: phys, cls: destCls}
		}
	}

	// Allocate the issue-queue entry and resolve operands.
	idx, ent := m.iqs[q].alloc()
	ent.thread = int16(t)
	ent.dseq = e.dseq
	m.ageStamp++
	ent.age = m.ageStamp
	e.iqQueue = int32(q)
	e.iqIdx = idx
	e.iqAge = ent.age
	use[Resource(q)]++

	if !u.WrongPath {
		m.resolveOperand(t, u, u.Dep1, int32(q), idx, ent)
		m.resolveOperand(t, u, u.Dep2, int32(q), idx, ent)
	}
	if ent.pending == 0 {
		m.iqs[q].markReady(idx)
	}
	m.st.Threads[t].Dispatched++
	return true
}

// resolveOperand links one positional dependence to its producer's physical
// register, if that producer is still in flight and not yet ready.
func (m *Machine) resolveOperand(t int, u *isa.Uop, dep uint16, q, idx int32, ent *iqEntry) {
	if dep == 0 || uint64(dep) > u.Index {
		return
	}
	pidx := u.Index - uint64(dep)
	pe := &m.prod[t][pidx&m.prodMask]
	if pe.idx != pidx {
		return // producer committed (or never tracked): value ready
	}
	rf := m.regs[regIndex(pe.cls)]
	if rf.isReady(pe.phys) {
		return
	}
	ent.pending++
	rf.addWaiter(pe.phys, waiterRef{queue: q, idx: idx, age: ent.age})
}

// ---- per-cycle sampling ----

func (m *Machine) sample() {
	if out := m.hier.OutstandingMem(m.cycle); out > 0 {
		m.st.MLPSum += uint64(out)
		m.st.MLPCycles++
	}
	if m.nt == 2 {
		slow := 0
		if m.pendingL1D[0] > 0 {
			slow++
		}
		if m.pendingL1D[1] > 0 {
			slow++
		}
		m.st.PhasePairCycles[slow]++
	}
}
