package experiments

import (
	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/metrics"
	"dcra/internal/policy"
	"dcra/internal/report"
	"dcra/internal/workload"
)

// Table5Row gives, for one 2-thread workload type, the percentage of cycles
// the thread pair spends with both slow, phases split, or both fast.
type Table5Row struct {
	Kind                      workload.Kind
	SlowSlow, Mixed, FastFast float64
	PaperSS, PaperMx, PaperFF float64
}

// paperTable5 holds the paper's Table 5 percentages [SS, mixed, FF].
var paperTable5 = map[workload.Kind][3]float64{
	workload.ILP: {7.8, 41.4, 50.8},
	workload.MIX: {25.6, 63.2, 11.2},
	workload.MEM: {85.0, 14.7, 0.3},
}

// Table5Sweep declares the table's cells: every 2-thread workload under
// DCRA on the baseline configuration.
func Table5Sweep() campaign.Sweep {
	cfg := config.Baseline()
	s := campaign.Sweep{Name: "tab5"}
	for _, kind := range workload.Kinds {
		s.Cells = append(s.Cells, kindCells(cfg, 2, kind, policy.NameDCRA)...)
	}
	return s
}

// Table5 reproduces the paper's Table 5: the distribution of DCRA phase
// pairs for the 2-thread workloads, averaged over the four groups of each
// type. Classification is the DCRA signal itself (pending L1D misses),
// sampled every cycle by the pipeline.
func Table5(s *Suite) ([]Table5Row, error) {
	cfg := config.Baseline()
	if err := s.Prefetch(Table5Sweep().Cells); err != nil {
		return nil, err
	}
	rows := make([]Table5Row, 0, len(workload.Kinds))
	for _, kind := range workload.Kinds {
		var ss, mx, ff []float64
		for _, w := range workload.Groups(2, kind) {
			r, err := s.run(cfg, w, policy.NameDCRA)
			if err != nil {
				return nil, err
			}
			c := r.Stats.PhasePairCycles
			total := float64(c[0] + c[1] + c[2])
			if total == 0 {
				continue
			}
			ff = append(ff, 100*float64(c[0])/total)
			mx = append(mx, 100*float64(c[1])/total)
			ss = append(ss, 100*float64(c[2])/total)
		}
		p := paperTable5[kind]
		rows = append(rows, Table5Row{
			Kind:     kind,
			SlowSlow: metrics.Mean(ss), Mixed: metrics.Mean(mx), FastFast: metrics.Mean(ff),
			PaperSS: p[0], PaperMx: p[1], PaperFF: p[2],
		})
	}
	return rows, nil
}

// Table5Report renders the phase distribution table.
func Table5Report(rows []Table5Row) *report.Table {
	t := report.NewTable("Table 5: phase distribution of 2-thread workloads (% of cycles)",
		"type", "slow-slow", "mixed", "fast-fast", "paper SS", "paper mixed", "paper FF")
	for _, r := range rows {
		t.AddRow(string(r.Kind), r.SlowSlow, r.Mixed, r.FastFast, r.PaperSS, r.PaperMx, r.PaperFF)
	}
	t.AddNote("reproduction target: MIX workloads spend the most time in split phases; MEM mostly slow-slow; ILP mostly fast-fast")
	return t
}
