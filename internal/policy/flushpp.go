package policy

import "dcra/internal/cpu"

// FLUSH++'s classification, as used in the experiments: every
// flushPPWindow cycles, a thread whose L2 misses per 1000 committed
// instructions over the window reach flushPPMPKI is high-miss, and with at
// least flushPPMemThreads high-miss threads the policy runs in FLUSH mode.
const (
	flushPPWindow     = 8192
	flushPPMPKI       = 2
	flushPPMemThreads = 2
)

// FlushPP is FLUSH++ (Cazorla et al., ISHPC'03): FLUSH whose flush fires
// only in FLUSH mode. It monitors the cache behaviour of the running threads
// and dynamically selects between STALL (better when pressure on resources
// is low: few threads missing in L2) and FLUSH (better under high pressure:
// several threads missing often). Both modes gate a missing thread.
type FlushPP struct {
	Flush

	flushMode  bool
	lastL2     []uint64
	lastCommit []uint64
	nextEval   uint64
}

// NewFlushPP returns FLUSH++ with the defaults used in the experiments.
func NewFlushPP() *FlushPP { return &FlushPP{} }

// Name implements cpu.Policy.
func (*FlushPP) Name() string { return NameFlushPP }

// Tick implements cpu.Policy: re-classify periodically, then run FLUSH's
// episode tracking, which flushes only in FLUSH mode. The first Tick
// classifies at once.
func (f *FlushPP) Tick(m *cpu.Machine) {
	if f.lastL2 == nil {
		f.lastL2 = make([]uint64, m.NumThreads())
		f.lastCommit = make([]uint64, m.NumThreads())
	}
	if m.Cycle() >= f.nextEval {
		f.reclassify(m)
		f.nextEval = m.Cycle() + flushPPWindow
	}
	f.flushEpisodes(m, f.flushMode)
}

func (f *FlushPP) reclassify(m *cpu.Machine) {
	st := m.Stats()
	high := 0
	for t := range st.Threads {
		l2 := st.Threads[t].L2DMisses
		com := st.Threads[t].Committed
		dl2 := l2 - f.lastL2[t]
		dcom := com - f.lastCommit[t]
		f.lastL2[t], f.lastCommit[t] = l2, com
		if dcom == 0 {
			// A thread that committed nothing all window is wedged on
			// misses: treat as high-miss.
			if dl2 > 0 || st.Threads[t].Committed == 0 {
				high++
			}
			continue
		}
		if 1000*float64(dl2)/float64(dcom) >= flushPPMPKI {
			high++
		}
	}
	f.flushMode = high >= flushPPMemThreads
}

// FlushMode reports the current operating mode (true = FLUSH); exposed for
// tests and reports.
func (f *FlushPP) FlushMode() bool { return f.flushMode }
