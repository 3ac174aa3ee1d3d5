package cpu

import (
	"fmt"

	"dcra/internal/isa"
	"dcra/internal/trace"
)

// This file implements the mid-run thread lifecycle the open-system job
// scheduler (internal/sched) drives: a hardware context can be drained and
// parked when its job departs, then rebound to a fresh instruction stream
// when the next job is placed on it — all without disturbing the other
// contexts, whose committed streams stay bit-identical to a run that never
// rebinds (TestRebindThreadLeavesOthersIntact).

// CommitObserver receives every committed uop of every thread, in commit
// order. The rebind bit-identity tests install one to compare committed
// streams uop for uop; the hook is nil (and free) everywhere else.
type CommitObserver func(t int, u *isa.Uop)

// SetCommitObserver installs fn as the machine's commit hook (nil removes
// it). Reinit clears the hook: an observer belongs to one run.
func (m *Machine) SetCommitObserver(fn CommitObserver) { m.commitObs = fn }

// drainThread squashes every in-flight uop of thread t — the whole ROB
// window plus the front-end pipe — returning their entries to the shared
// pools (see reclaim). Shared structures belonging to other threads are
// untouched.
func (m *Machine) drainThread(t int) {
	m.reclaim(t, m.rob[t].headSeq)
	m.rob[t].drain()
}

// ParkThread drains context t and marks it idle: a parked thread fetches
// nothing, holds no shared resources and commits nothing until RebindThread
// reactivates it. The scheduler parks a context the cycle its job departs.
func (m *Machine) ParkThread(t int) {
	m.drainThread(t)
	m.threads[t].parked = true
}

// Parked reports whether context t is idle.
func (m *Machine) Parked(t int) bool { return m.threads[t].parked }

// RebindThread drains context t and rebinds it to a fresh canonical stream
// for (profile, seed), leaving every other context undisturbed: their
// streams, in-flight windows and committed sequences are exactly those of a
// run that never rebound t (timing may shift through the shared caches and
// queues, content may not). The new job's resident working set is prewarmed
// like New's, modelling the slice-of-a-long-run measurement convention, and
// the thread's RAS is emptied — the new stream's call stack starts empty.
func (m *Machine) RebindThread(t int, profile trace.Profile, seed uint64) error {
	if t < 0 || t >= m.nt {
		return fmt.Errorf("cpu: rebind of thread %d on a %d-context machine", t, m.nt)
	}
	if err := profile.Validate(); err != nil {
		return err
	}
	m.drainThread(t)
	m.bindStream(t, profile, seed, m.threads[t].gen)
	m.pred.SetRASTop(t, 0)

	m.prewarm(t)
	return nil
}

// RunToTargets advances the machine until some thread t with a target
// (targets[t] != NoTarget) reaches targets[t] cumulative committed uops, or
// budget cycles elapse, whichever is first. It returns the cycles consumed.
// Targets are absolute (against Stats().Threads[t].Committed), so a caller
// tracking per-job budgets sets target = committed-at-dispatch + budget.
func (m *Machine) RunToTargets(targets []uint64, budget uint64) uint64 {
	start := m.cycle
	for m.cycle-start < budget {
		m.step()
		for t := range targets {
			if m.st.Threads[t].Committed >= targets[t] {
				return m.cycle - start
			}
		}
	}
	return m.cycle - start
}

// NoTarget disables a thread's slot in RunToTargets.
const NoTarget = ^uint64(0)
