package experiments

import (
	"fmt"

	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/metrics"
	"dcra/internal/report"
	"dcra/internal/workload"
)

// Figure5Policies are the fetch policies compared against DCRA in the
// paper's Figure 5 (STALL/FLUSH/PDG omitted there for brevity, as in the
// paper; they are available through the suite for the extended report).
var Figure5Policies = []PolicyName{PolICount, PolDG, PolFlushPP, PolDCRA}

// Figure5Cell holds per-workload-type results for all Figure 5 policies.
type Figure5Cell struct {
	Threads int
	Kind    workload.Kind

	Throughput map[PolicyName]float64
	Hmean      map[PolicyName]float64
}

// Figure5Result holds the 9 cells plus DCRA's average Hmean improvement
// over each policy (the paper's headline numbers: +18% over ICOUNT, +41%
// over DG, +4% over FLUSH++).
type Figure5Result struct {
	Cells []Figure5Cell

	AvgHmeanImprovement map[PolicyName]float64
}

// Figure5Sweep declares the figure's cells: all 144 (36 workloads x 4
// policies) on the baseline configuration.
func Figure5Sweep() campaign.Sweep {
	cfg := config.Baseline()
	s := campaign.Sweep{Name: "fig5"}
	for _, n := range threadCounts {
		for _, kind := range workload.Kinds {
			s.Cells = append(s.Cells, kindCells(cfg, n, kind, Figure5Policies...)...)
		}
	}
	return s
}

// Figure5 reproduces Figures 5(a) IPC throughput and 5(b) Hmean improvement.
// The declared sweep is run on the suite's worker pool before the per-cell
// averaging below reads the cells back from the memo.
func Figure5(s *Suite) (Figure5Result, error) {
	cfg := config.Baseline()
	if err := s.Prefetch(Figure5Sweep().Cells); err != nil {
		return Figure5Result{}, err
	}
	res := Figure5Result{AvgHmeanImprovement: make(map[PolicyName]float64)}
	improvements := make(map[PolicyName][]float64)
	for _, n := range threadCounts {
		for _, kind := range workload.Kinds {
			cell := Figure5Cell{
				Threads:    n,
				Kind:       kind,
				Throughput: make(map[PolicyName]float64),
				Hmean:      make(map[PolicyName]float64),
			}
			for _, pn := range Figure5Policies {
				tp, hm, err := s.averages(cfg, workload.Groups(n, kind), pn)
				if err != nil {
					return res, err
				}
				cell.Throughput[pn] = tp
				cell.Hmean[pn] = hm
			}
			for _, pn := range Figure5Policies {
				if pn == PolDCRA {
					continue
				}
				improvements[pn] = append(improvements[pn],
					metrics.Improvement(cell.Hmean[PolDCRA], cell.Hmean[pn]))
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	for pn, vals := range improvements {
		res.AvgHmeanImprovement[pn] = metrics.Mean(vals)
	}
	return res, nil
}

// ThroughputReport renders Figure 5(a).
func (f Figure5Result) ThroughputReport() *report.Table {
	cols := []string{"workload"}
	for _, pn := range Figure5Policies {
		cols = append(cols, string(pn))
	}
	t := report.NewTable("Figure 5a: IPC throughput per policy", cols...)
	for _, c := range f.Cells {
		row := []any{fmt.Sprintf("%s%d", c.Kind, c.Threads)}
		for _, pn := range Figure5Policies {
			row = append(row, c.Throughput[pn])
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: DCRA highest everywhere except MEM workloads, where FLUSH++ edges it out")
	return t
}

// HmeanReport renders Figure 5(b).
func (f Figure5Result) HmeanReport() *report.Table {
	cols := []string{"workload"}
	for _, pn := range Figure5Policies {
		if pn != PolDCRA {
			cols = append(cols, "vs "+string(pn)+" %")
		}
	}
	t := report.NewTable("Figure 5b: DCRA Hmean improvement over fetch policies", cols...)
	for _, c := range f.Cells {
		row := []any{fmt.Sprintf("%s%d", c.Kind, c.Threads)}
		for _, pn := range Figure5Policies {
			if pn == PolDCRA {
				continue
			}
			row = append(row, metrics.Improvement(c.Hmean[PolDCRA], c.Hmean[pn]))
		}
		t.AddRow(row...)
	}
	row := []any{"avg"}
	for _, pn := range Figure5Policies {
		if pn != PolDCRA {
			row = append(row, f.AvgHmeanImprovement[pn])
		}
	}
	t.AddRow(row...)
	t.AddNote("paper averages: +18%% over ICOUNT, +41%% over DG, +4%% over FLUSH++")
	return t
}
