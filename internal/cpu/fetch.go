package cpu

import "dcra/internal/isa"

// fetch runs the front end for one cycle: the policy ranks threads, up to
// FetchMaxTh threads share the FetchWidth slots (ICOUNT2.8-style), and each
// thread fetches sequentially until a taken branch, an I-cache line
// boundary, a full front-end pipe, or the width limit.
func (m *Machine) fetch() {
	m.rankBuf = m.rankBuf[:0]
	for t := 0; t < m.nt; t++ {
		m.rankBuf = append(m.rankBuf, t)
	}
	m.pol.Rank(m, m.rankBuf)
	m.fetchRR = (m.fetchRR + 1) % m.nt

	budget := m.cfg.FetchWidth
	threadsUsed := 0
	for _, t := range m.rankBuf {
		if budget == 0 || threadsUsed == m.cfg.FetchMaxTh {
			break
		}
		ts := &m.threads[t]
		if ts.parked {
			continue
		}
		if ts.icacheReadyAt > m.cycle || m.fe[t].full() {
			continue
		}
		if m.pol.Gate(m, t) {
			m.st.Threads[t].FetchStalled++
			continue
		}
		n := m.fetchThread(t, budget)
		if n > 0 {
			budget -= n
			threadsUsed++
		}
	}
}

// fetchThread fetches up to max uops from thread t's current path.
func (m *Machine) fetchThread(t, max int) int {
	ts := &m.threads[t]
	fe := &m.fe[t]

	var pc uint64
	if ts.wrongPath {
		pc = ts.wpPC
	} else {
		pc = ts.stream.At(ts.fetchIdx).PC
	}
	lat, miss := m.hier.AccessI(pc, m.cycle)
	if miss {
		ts.icacheReadyAt = m.cycle + uint64(lat)
		m.st.Threads[t].L1IMisses++
		return 0
	}

	line := pc >> 6
	readyAt := m.cycle + uint64(m.cfg.FrontEndDepth)
	n := 0
	for n < max && !fe.full() {
		if ts.wrongPath {
			u := ts.stream.WrongPath(ts.wpPC)
			if u.PC>>6 != line {
				break
			}
			ts.wpPC = ts.stream.NextWrongPC(&u)
			e := fe.push()
			e.u = u
			e.readyAt, e.mispredicted, e.rasTop = readyAt, false, m.pred.RASTop(t)
			m.st.Threads[t].Fetched++
			m.st.Threads[t].WrongPath++
			n++
			if u.Class == isa.OpBranch && u.Taken {
				break // taken branch ends the fetch group, wrong path included
			}
			continue
		}

		// Work through a pointer into the stream's retained window: copying
		// the uop into a local that is later passed to interface methods
		// (Predict, UopFetched) forces a heap allocation per fetched uop —
		// formerly ~70% of all bytes allocated by a full experiment suite.
		// The pointer stays valid through this iteration; the next At call
		// (which may grow the window) happens only after the copy into the
		// front-end ring below.
		u := ts.stream.At(ts.fetchIdx)
		if u.PC>>6 != line {
			break
		}
		rasTop := m.pred.RASTop(t)
		mispredicted := false
		predTaken := false
		var predTarget uint64
		targetKnown := false
		if u.Class == isa.OpBranch {
			pr := m.pred.Predict(t, u)
			predTaken, predTarget, targetKnown = pr.Taken, pr.Target, pr.TargetKnown
			switch {
			case predTaken != u.Taken:
				mispredicted = true
				m.st.Threads[t].MispredDir++
			case predTaken && u.Taken && (!targetKnown || predTarget != u.Target):
				mispredicted = true
				m.st.Threads[t].MispredTarget++
			}
		}
		e := fe.push()
		e.u = *u
		e.readyAt, e.mispredicted, e.rasTop = readyAt, mispredicted, rasTop
		ts.fetchIdx++
		m.st.Threads[t].Fetched++
		if m.fetchObs != nil {
			m.fetchObs.UopFetched(m, t, u)
		}
		n++

		if u.Class == isa.OpBranch {
			if mispredicted {
				// Continue down the predicted (wrong) path next cycle.
				ts.wrongPath = true
				if predTaken && targetKnown {
					ts.wpPC = predTarget
				} else {
					ts.wpPC = u.PC + 4
				}
				break
			}
			if predTaken {
				break // cannot fetch past a taken branch in the same cycle
			}
		}
	}
	return n
}
