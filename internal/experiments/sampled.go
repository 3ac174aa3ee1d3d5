package experiments

import (
	"fmt"
	"math"
	"strings"

	"dcra/internal/campaign"
	"dcra/internal/config"
)

// This file owns the sampled-execution-mode surface of the experiment layer:
// how a suite's Mode maps onto campaign cells, how a declared (exact) sweep
// transforms into its sampled counterpart, and the parity harness that keeps
// the exact kernel the verifier of the sampled one.

// sampleableCell reports whether a cell's workload runs in sampled mode:
// multiprogrammed Table 4 workloads do; "bench:" single-thread protocol
// cells (baselines and resource-restriction probes) and "sched:" job-stream
// trials always run exact.
func sampleableCell(c campaign.Cell) bool {
	return !strings.HasPrefix(c.WID, benchPrefix) && !strings.HasPrefix(c.WID, schedPrefix)
}

// modeCell returns the cell a run in the given mode demands: a sampleable
// cell in sampled mode carries the mode and the schedule sc in its config,
// so the schedule is part of its content key and cells run under different
// schedules can never collide in a store (a zero sc leaves the cell's own
// schedule in place). Every other cell stays exact.
func modeCell(c campaign.Cell, mode string, sc config.SamplingConfig) campaign.Cell {
	if mode == campaign.ModeSampled && sampleableCell(c) {
		c = c.Sampled()
		if sc.Enabled() {
			c.Cfg.Sampling = sc
		}
	}
	return c
}

// applyCellMode stamps the suite's execution mode and sampling schedule
// onto one cell.
func (s *Suite) applyCellMode(c campaign.Cell) campaign.Cell {
	return modeCell(c, s.Mode, s.Sampling)
}

// ApplyModeSampling transforms a declared (exact) sweep into the cell set a
// suite running in the given mode under schedule sc demands — the
// sweep-side counterpart of Suite.Mode and Suite.Sampling. ModeExact
// returns the sweep unchanged. The campaign CLI and the coordinator
// enumerate sweeps through it, sharing the transformation with
// Suite.Prefetch.
func ApplyModeSampling(s campaign.Sweep, mode string, sc config.SamplingConfig) campaign.Sweep {
	if mode == campaign.ModeExact {
		return s
	}
	out := campaign.Sweep{Name: s.Name + "+" + mode, Cells: make([]campaign.Cell, len(s.Cells))}
	for i, c := range s.Cells {
		out.Cells[i] = modeCell(c, mode, sc)
	}
	return out
}

// ParityRow records the exact-vs-sampled comparison of one cell: the
// sampled estimate must land within its own reported 99.7% confidence
// interval of the exact value (SMARTS' accuracy contract, checked per
// Figure 5 workload by TestFigure5Parity).
type ParityRow struct {
	Cell    campaign.Cell `json:"cell"`
	Exact   float64       `json:"exact"`   // exact throughput (aggregate IPC)
	Sampled float64       `json:"sampled"` // sampled window-mean throughput
	CI      float64       `json:"ci997"`   // sampled 99.7% half-width
	AbsErr  float64       `json:"abs_err"`
	Within  bool          `json:"within"`
}

// ParityStats summarises a parity sweep.
type ParityStats struct {
	Cells        int     `json:"cells"`
	WithinCI     int     `json:"within_ci"`
	MaxAbsErr    float64 `json:"max_abs_err"`
	MeanAbsErr   float64 `json:"mean_abs_err"`
	MeanCIHalf   float64 `json:"mean_ci_half_width"`
	MaxRelErrPct float64 `json:"max_rel_err_pct"`
	AllWithin    bool    `json:"all_within"`
}

// Figure5Parity runs every Figure 5 workload cell in both modes on the two
// given suites (exact and sampled, sharing windows and seed) and compares
// throughput. The exact suite verifies the sampled one: a row is within
// parity when |sampled − exact| <= the sampled run's reported CI half-width.
func Figure5Parity(exact, sampled *Suite) ([]ParityRow, ParityStats, error) {
	sweep := Figure5Sweep()
	if err := exact.Prefetch(sweep.Cells); err != nil {
		return nil, ParityStats{}, err
	}
	if err := sampled.Prefetch(sweep.Cells); err != nil {
		return nil, ParityStats{}, err
	}
	rows := make([]ParityRow, 0, len(sweep.Cells))
	stats := ParityStats{AllWithin: true}
	for _, c := range sweep.Cells {
		er, err := exact.RunCell(c)
		if err != nil {
			return nil, ParityStats{}, err
		}
		sc := sampled.applyCellMode(c)
		sr, err := sampled.RunCell(sc)
		if err != nil {
			return nil, ParityStats{}, err
		}
		if sr.Sampled == nil {
			return nil, ParityStats{}, fmt.Errorf("experiments: parity cell %s: no sampling summary", sc)
		}
		row := ParityRow{
			Cell:    sc,
			Exact:   er.Throughput,
			Sampled: sr.Throughput,
			CI:      sr.Sampled.ThroughputCI,
		}
		row.AbsErr = math.Abs(row.Sampled - row.Exact)
		row.Within = row.AbsErr <= row.CI
		rows = append(rows, row)

		stats.Cells++
		if row.Within {
			stats.WithinCI++
		} else {
			stats.AllWithin = false
		}
		if row.AbsErr > stats.MaxAbsErr {
			stats.MaxAbsErr = row.AbsErr
		}
		stats.MeanAbsErr += row.AbsErr
		stats.MeanCIHalf += row.CI
		if row.Exact > 0 {
			if rel := 100 * row.AbsErr / row.Exact; rel > stats.MaxRelErrPct {
				stats.MaxRelErrPct = rel
			}
		}
	}
	if stats.Cells > 0 {
		stats.MeanAbsErr /= float64(stats.Cells)
		stats.MeanCIHalf /= float64(stats.Cells)
	}
	return rows, stats, nil
}
