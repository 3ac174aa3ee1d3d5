package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"dcra/internal/metrics"
	"dcra/internal/sim"
	"dcra/internal/workload"
)

// EventLogText returns the trial's event log as one newline-terminated
// string — the byte sequence the determinism contract is stated over.
func (t *Trial) EventLogText() string {
	return strings.Join(t.EventLog, "\n") + "\n"
}

// EventLogSHA returns the hex SHA-256 digest of EventLogText, truncated to
// 128 bits: enough to compare trials across hosts without shipping logs.
func (t *Trial) EventLogSHA() string {
	sum := sha256.Sum256([]byte(t.EventLogText()))
	return hex.EncodeToString(sum[:16])
}

// PolicyLabel renders the trial's policy pair as "<picker>+<alloc>", the
// form campaign cells use.
func (t *Trial) PolicyLabel() string { return t.Picker + "+" + t.Alloc }

// Summary condenses the trial into the open-system metrics the experiment
// tables report.
func (t *Trial) Summary() *sim.SchedSummary {
	s := &sim.SchedSummary{
		Contexts:    t.Contexts,
		Jobs:        len(t.Jobs),
		Completed:   t.Completed,
		Cycles:      t.Cycles,
		EventLogSHA: t.EventLogSHA(),
	}
	if t.Cycles > 0 {
		s.JobsPerMCycle = float64(t.Completed) * 1e6 / float64(t.Cycles)
		if t.Stats != nil {
			s.UopsPerCycle = t.Stats.Throughput()
		}
	}
	var turnarounds, rates []float64
	for i := range t.Jobs {
		j := &t.Jobs[i]
		if !j.Done {
			continue
		}
		ta := float64(j.Turnaround())
		turnarounds = append(turnarounds, ta)
		if ta > 0 {
			rates = append(rates, float64(j.Budget)/ta)
		}
	}
	s.P50Turnaround = metrics.Percentile(turnarounds, 50)
	s.P99Turnaround = metrics.Percentile(turnarounds, 99)
	s.MeanTurnaround = metrics.Mean(turnarounds)
	s.Jain = metrics.JainFairness(rates)
	return s
}

// Result adapts the trial to the campaign result schema so sched cells ride
// the same memoisation, store and coordinator machinery as every
// closed-workload cell. Throughput carries the aggregate committed IPC; the
// open-system metrics live in Result.Sched.
func (t *Trial) Result() sim.Result {
	s := t.Summary()
	return sim.Result{
		Workload:   workload.Workload{Threads: t.Contexts},
		Policy:     t.PolicyLabel(),
		Stats:      t.Stats,
		Throughput: s.UopsPerCycle,
		Sched:      s,
	}
}

// String renders a one-line human summary.
func (t *Trial) String() string {
	s := t.Summary()
	return fmt.Sprintf("sched %s %s: %d/%d jobs in %d cycles (%.1f jobs/Mcyc, p99 turnaround %.0f, jain %.3f)",
		t.Arrivals, t.PolicyLabel(), t.Completed, len(t.Jobs), t.Cycles,
		s.JobsPerMCycle, s.P99Turnaround, s.Jain)
}
