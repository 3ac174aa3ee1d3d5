// Package stats collects simulation statistics.
//
// The pipeline and policies update a Stats value as they run; the experiment
// harness reads derived metrics (IPC, miss rates, MLP, front-end activity)
// after the run. Everything is plain integer counting — no sampling — so two
// identical runs produce identical statistics.
package stats

import "fmt"

// ThreadStats aggregates per-thread counters.
type ThreadStats struct {
	Fetched    uint64 // uops fetched (including wrong-path and re-fetched)
	WrongPath  uint64 // wrong-path uops fetched
	Dispatched uint64
	Issued     uint64
	Committed  uint64
	Squashed   uint64 // uops removed by mispredict or FLUSH squashes

	Branches       uint64 // committed branches
	BranchMispred  uint64 // committed mispredicted branches
	MispredDir     uint64 // fetched branches with wrong predicted direction
	MispredTarget  uint64 // fetched taken branches with unknown/wrong target
	Loads          uint64 // committed loads
	Stores         uint64 // committed stores
	L1DMisses      uint64
	L2DMisses      uint64 // data-side L2 misses (to memory)
	L1IMisses      uint64
	TLBMisses      uint64
	FetchStalled   uint64 // cycles this thread was gated by the policy
	DispatchStalls uint64 // dispatch attempts blocked by resource shortage

	Flushes uint64 // FLUSH-policy squash events

	// FastForwarded counts uops advanced functionally
	// (Machine.FastForwardBudgetsTail, Machine.FastForwardThread) rather
	// than through the detailed pipeline. They are not Committed:
	// IPC and throughput remain detailed-window quantities.
	FastForwarded uint64
}

// add accumulates o's counters into t (window merging for sampled runs).
func (t *ThreadStats) add(o *ThreadStats) {
	t.Fetched += o.Fetched
	t.WrongPath += o.WrongPath
	t.Dispatched += o.Dispatched
	t.Issued += o.Issued
	t.Committed += o.Committed
	t.Squashed += o.Squashed
	t.Branches += o.Branches
	t.BranchMispred += o.BranchMispred
	t.MispredDir += o.MispredDir
	t.MispredTarget += o.MispredTarget
	t.Loads += o.Loads
	t.Stores += o.Stores
	t.L1DMisses += o.L1DMisses
	t.L2DMisses += o.L2DMisses
	t.L1IMisses += o.L1IMisses
	t.TLBMisses += o.TLBMisses
	t.FetchStalled += o.FetchStalled
	t.DispatchStalls += o.DispatchStalls
	t.Flushes += o.Flushes
	t.FastForwarded += o.FastForwarded
}

// IPC returns committed uops per cycle for this thread.
func (t *ThreadStats) IPC(cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(t.Committed) / float64(cycles)
}

// L2MissRate returns data L2 misses per L2 access (L1D misses), in percent.
// This matches the paper's Table 3 convention.
func (t *ThreadStats) L2MissRate() float64 {
	if t.L1DMisses == 0 {
		return 0
	}
	return 100 * float64(t.L2DMisses) / float64(t.L1DMisses)
}

// MispredictRate returns committed-branch misprediction rate in percent.
func (t *ThreadStats) MispredictRate() float64 {
	if t.Branches == 0 {
		return 0
	}
	return 100 * float64(t.BranchMispred) / float64(t.Branches)
}

// Stats aggregates a whole simulation run.
type Stats struct {
	Cycles  uint64
	Threads []ThreadStats

	// Memory-level-parallelism accounting: each cycle the pipeline adds the
	// number of outstanding L2->memory misses to MLPSum and increments
	// MLPCycles when that number is non-zero. AvgMLP = MLPSum/MLPCycles is
	// the average number of overlapped main-memory accesses, the statistic
	// behind the paper's "18% more overlapping L2 misses" claim.
	MLPSum    uint64
	MLPCycles uint64

	// Phase occupancy for Table 5: for 2-thread runs the harness classifies
	// the pair each cycle. Indexed by the number of slow threads (0..2).
	PhasePairCycles [3]uint64
}

// New returns a Stats sized for the given number of threads.
func New(threads int) *Stats {
	return &Stats{Threads: make([]ThreadStats, threads)}
}

// Accumulate adds o's counters into s — used by the sampling controller to
// merge the K measured windows of a run into one aggregate Stats. Thread
// counts must match (both come from the same machine).
func (s *Stats) Accumulate(o *Stats) {
	s.Cycles += o.Cycles
	s.MLPSum += o.MLPSum
	s.MLPCycles += o.MLPCycles
	for i := range s.PhasePairCycles {
		s.PhasePairCycles[i] += o.PhasePairCycles[i]
	}
	for i := range s.Threads {
		s.Threads[i].add(&o.Threads[i])
	}
}

// TotalCommitted returns the sum of committed uops over all threads.
func (s *Stats) TotalCommitted() uint64 {
	var n uint64
	for i := range s.Threads {
		n += s.Threads[i].Committed
	}
	return n
}

// Throughput returns total IPC (sum of per-thread IPCs).
func (s *Stats) Throughput() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.TotalCommitted()) / float64(s.Cycles)
}

// TotalFetched returns the sum of fetched uops (front-end activity,
// including wrong-path and FLUSH re-fetch work).
func (s *Stats) TotalFetched() uint64 {
	var n uint64
	for i := range s.Threads {
		n += s.Threads[i].Fetched
	}
	return n
}

// AvgMLP returns the average number of overlapped outstanding memory
// accesses over cycles that had at least one outstanding.
func (s *Stats) AvgMLP() float64 {
	if s.MLPCycles == 0 {
		return 0
	}
	return float64(s.MLPSum) / float64(s.MLPCycles)
}

// String renders a compact human-readable summary.
func (s *Stats) String() string {
	out := fmt.Sprintf("cycles=%d throughput=%.3f mlp=%.2f\n", s.Cycles, s.Throughput(), s.AvgMLP())
	for i := range s.Threads {
		t := &s.Threads[i]
		out += fmt.Sprintf("  t%d: ipc=%.3f commit=%d fetch=%d squash=%d l1d=%d l2d=%d bmr=%.1f%%\n",
			i, t.IPC(s.Cycles), t.Committed, t.Fetched, t.Squashed,
			t.L1DMisses, t.L2DMisses, t.MispredictRate())
	}
	return out
}
