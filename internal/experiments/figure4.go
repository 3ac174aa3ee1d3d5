package experiments

import (
	"fmt"

	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/metrics"
	"dcra/internal/policy"
	"dcra/internal/report"
	"dcra/internal/workload"
)

// Figure4Cell is DCRA's improvement over SRA for one workload type.
type Figure4Cell struct {
	Threads int
	Kind    workload.Kind

	ThroughputImprovement float64 // percent
	HmeanImprovement      float64 // percent
}

// Figure4Result holds the 9 workload-type cells plus the averages.
type Figure4Result struct {
	Cells         []Figure4Cell
	AvgThroughput float64
	AvgHmean      float64
}

// Figure4Sweep declares the figure's cells: every workload type under DCRA
// and SRA on the baseline configuration.
func Figure4Sweep() campaign.Sweep {
	cfg := config.Baseline()
	s := campaign.Sweep{Name: "fig4"}
	for _, n := range threadCounts {
		for _, kind := range workload.Kinds {
			s.Cells = append(s.Cells, kindCells(cfg, n, kind, policy.NameDCRA, policy.NameSRA)...)
		}
	}
	return s
}

// Figure4 reproduces the paper's Figure 4: throughput and Hmean improvement
// of DCRA over static resource allocation (SRA) per workload type. Paper
// result: DCRA wins everywhere, ~7% throughput and ~8% Hmean on average,
// with the largest gains on MIX workloads.
func Figure4(s *Suite) (Figure4Result, error) {
	cfg := config.Baseline()
	if err := s.Prefetch(Figure4Sweep().Cells); err != nil {
		return Figure4Result{}, err
	}
	var res Figure4Result
	var tps, hms []float64
	for _, n := range threadCounts {
		for _, kind := range workload.Kinds {
			dTP, dHM, err := s.averages(cfg, workload.Groups(n, kind), policy.NameDCRA)
			if err != nil {
				return res, err
			}
			sTP, sHM, err := s.averages(cfg, workload.Groups(n, kind), policy.NameSRA)
			if err != nil {
				return res, err
			}
			cell := Figure4Cell{
				Threads:               n,
				Kind:                  kind,
				ThroughputImprovement: metrics.Improvement(dTP, sTP),
				HmeanImprovement:      metrics.Improvement(dHM, sHM),
			}
			res.Cells = append(res.Cells, cell)
			tps = append(tps, cell.ThroughputImprovement)
			hms = append(hms, cell.HmeanImprovement)
		}
	}
	res.AvgThroughput = metrics.Mean(tps)
	res.AvgHmean = metrics.Mean(hms)
	return res, nil
}

// Report renders the figure as a table.
func (f Figure4Result) Report() *report.Table {
	t := report.NewTable("Figure 4: DCRA improvement over SRA (%)",
		"workload", "throughput %", "hmean %")
	for _, c := range f.Cells {
		t.AddRow(fmt.Sprintf("%s%d", c.Kind, c.Threads),
			c.ThroughputImprovement, c.HmeanImprovement)
	}
	t.AddRow("avg", f.AvgThroughput, f.AvgHmean)
	t.AddNote("paper: +7%% throughput, +8%% hmean on average; MIX workloads benefit most")
	return t
}
