package cpu

import "dcra/internal/isa"

// reclaim releases every in-flight uop of thread t with dseq >= lo — ROB
// entries and the whole front-end pipe — returning issue-queue slots,
// registers, pending-miss counts and producer-ring slots to the shared
// pools, restoring the RAS to the oldest reclaimed snapshot, and bumping
// the squash generation so stale calendar events can never validate against
// entries dispatched later. The caller truncates the ROB window itself
// (rollbackTo for a partial squash, drain for a full one).
func (m *Machine) reclaim(t int, lo uint64) {
	ts := &m.threads[t]
	r := m.rob[t]
	ts.gen++

	rasRestore := int32(-1)
	for ds := r.tailSeq; ds > lo; ds-- {
		e := r.at(ds - 1)
		m.st.Threads[t].Squashed++
		if e.state == stateDispatched && e.iqQueue >= 0 {
			q := m.iqs[e.iqQueue]
			if ent := &q.entries[e.iqIdx]; ent.used && ent.age == e.iqAge {
				q.freeEntry(e.iqIdx)
				m.usage[t][e.iqQueue]--
			}
		}
		m.release(t, e)
		m.dropPending(t, e)
		rasRestore = e.rasTop // last visited = oldest squashed
	}

	fe := &m.fe[t]
	if fe.count > 0 {
		m.st.Threads[t].Squashed += uint64(fe.count)
		if rasRestore < 0 {
			rasRestore = fe.peek().rasTop
		}
		fe.clear()
	}
	if rasRestore >= 0 {
		m.pred.SetRASTop(t, rasRestore)
	}
	ts.wrongPath = false
}

// squashAfter removes every in-flight uop of thread t younger than dseq
// `after` — back-end entries and the whole front-end pipe — releasing their
// resources, then redirects fetch to canonical stream index redirectIdx.
// It implements both branch-misprediction recovery and the FLUSH policy's
// load squash.
func (m *Machine) squashAfter(t int, after uint64, redirectIdx uint64) {
	m.reclaim(t, after+1)
	m.rob[t].rollbackTo(after)
	m.threads[t].fetchIdx = redirectIdx
}

// FlushThread implements the FLUSH response action: it finds thread t's
// oldest load with a detected in-flight L2 miss, squashes every younger uop
// (their resources return to the shared pools) and rewinds fetch to just
// after the load. The caller (the FLUSH/FLUSH++ policy) keeps the thread
// fetch-gated until the miss is serviced. Returns false if no such load is
// in flight.
func (m *Machine) FlushThread(t int) bool {
	r := m.rob[t]
	for ds := r.headSeq; ds < r.tailSeq; ds++ {
		e := r.at(ds)
		if e.u.Class == isa.OpLoad && e.l2Counted && e.state == stateIssued && !e.u.WrongPath {
			if ds+1 == r.tailSeq && m.fe[t].empty() {
				return false // nothing younger to reclaim
			}
			m.squashAfter(t, ds, e.u.Index+1)
			m.st.Threads[t].Flushes++
			return true
		}
	}
	return false
}
