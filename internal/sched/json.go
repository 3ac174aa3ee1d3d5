package sched

import (
	"fmt"

	"dcra/internal/obs"
	"dcra/internal/sample"
	"dcra/internal/sim"
	"dcra/internal/stats"
)

// RunStats is the machine-readable schema shared by `smtsim -json` (static
// fixed-window runs) and `smtsim serve` (open-system trials): both emit the
// same top-level document, with the Sched block present only for trials.
type RunStats struct {
	Mode       string           `json:"mode"` // "static" or "serve"
	Policy     string           `json:"policy"`
	Cycles     uint64           `json:"cycles"`
	Throughput float64          `json:"throughput_ipc"`
	Threads    []ThreadRunStats `json:"threads"`

	// Sampled carries the SMARTS sampling summary when the static run used
	// `smtsim -sampled`; Throughput is then the window mean and the Threads
	// counters aggregate the measured windows only.
	Sampled *sample.Summary `json:"sampled,omitempty"`

	Sched *sim.SchedSummary `json:"sched,omitempty"`
	Jobs  []Job             `json:"jobs,omitempty"`

	// Probe carries the periodic per-thread IPC / ROB-occupancy series when
	// the run was probed (`smtsim -probe N`).
	Probe *obs.ProbeSeries `json:"probe,omitempty"`
}

// ThreadRunStats is the per-hardware-context slice of RunStats.
type ThreadRunStats struct {
	Label        string  `json:"label"` // bench name (static) or ctx<N> (serve)
	Committed    uint64  `json:"committed"`
	IPC          float64 `json:"ipc"`
	Squashed     uint64  `json:"squashed"`
	L1DMisses    uint64  `json:"l1d_misses"`
	L2DMisses    uint64  `json:"l2d_misses"`
	MispredPct   float64 `json:"mispredict_pct"`
	FetchStalled uint64  `json:"fetch_stalled"`
}

// threadRunStats flattens per-thread counters under the given labels.
func threadRunStats(st *stats.Stats, labels []string) []ThreadRunStats {
	out := make([]ThreadRunStats, len(st.Threads))
	for i := range st.Threads {
		ts := &st.Threads[i]
		out[i] = ThreadRunStats{
			Label:        labels[i],
			Committed:    ts.Committed,
			IPC:          ts.IPC(st.Cycles),
			Squashed:     ts.Squashed,
			L1DMisses:    ts.L1DMisses,
			L2DMisses:    ts.L2DMisses,
			MispredPct:   ts.MispredictRate(),
			FetchStalled: ts.FetchStalled,
		}
	}
	return out
}

// StaticRunStats builds the RunStats document of a fixed-window run: one
// label per thread (the bench names), no Sched block.
func StaticRunStats(policy string, labels []string, st *stats.Stats) RunStats {
	return RunStats{
		Mode:       "static",
		Policy:     policy,
		Cycles:     st.Cycles,
		Throughput: st.Throughput(),
		Threads:    threadRunStats(st, labels),
	}
}

// RunStats builds the trial's document: per-context counters (labelled
// ctx<N>, since contexts serve many jobs over a trial), the Sched summary
// and the full per-job record.
func (t *Trial) RunStats() RunStats {
	labels := make([]string, t.Contexts)
	for i := range labels {
		labels[i] = fmt.Sprintf("ctx%d", i)
	}
	return RunStats{
		Mode:       "serve",
		Policy:     t.PolicyLabel(),
		Cycles:     t.Cycles,
		Throughput: t.Stats.Throughput(),
		Threads:    threadRunStats(t.Stats, labels),
		Sched:      t.Summary(),
		Jobs:       t.Jobs,
	}
}
