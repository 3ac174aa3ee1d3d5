package experiments

import (
	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/report"
	"dcra/internal/trace"
)

// Table3Row is one benchmark's measured single-thread cache behaviour next
// to the paper's reported value.
type Table3Row struct {
	Name        string
	Suite       string // INTEGER / FP
	Type        string // MEM / ILP
	L2MissRate  float64
	PaperL2Rate float64
	IPC         float64
}

// Table3Sweep declares the table's cells: one single-thread ICOUNT run per
// benchmark on the baseline configuration — the same runs Figure 5's Hmean
// baselines measure. nil selects the full Table 3 suite.
func Table3Sweep(benchmarks []string) campaign.Sweep {
	if benchmarks == nil {
		benchmarks = trace.Names()
	}
	cfg := config.Baseline()
	s := campaign.Sweep{Name: "tab3"}
	for _, name := range benchmarks {
		s.Cells = append(s.Cells, benchCell(cfg, name, polBase))
	}
	return s
}

// Table3 reproduces the paper's Table 3: per-benchmark L2 miss rates and
// the MEM/ILP split, measured on single-thread baseline runs. The declared
// sweep — one independent run per benchmark — executes on the suite's
// worker pool; each row renders from its cell's stored statistics.
func Table3(s *Suite, benchmarks []string) ([]Table3Row, error) {
	if benchmarks == nil {
		benchmarks = trace.Names()
	}
	cfg := config.Baseline()
	if err := s.Prefetch(Table3Sweep(benchmarks).Cells); err != nil {
		return nil, err
	}
	rows := make([]Table3Row, len(benchmarks))
	for i, name := range benchmarks {
		p := trace.MustProfile(name)
		r, err := s.RunCell(benchCell(cfg, name, polBase))
		if err != nil {
			return nil, err
		}
		suite := "INTEGER"
		if p.FP {
			suite = "FP"
		}
		rows[i] = Table3Row{
			Name:        name,
			Suite:       suite,
			Type:        p.Type(),
			L2MissRate:  r.Stats.Threads[0].L2MissRate(),
			PaperL2Rate: p.PaperL2MissRate,
			IPC:         r.IPCs[0],
		}
	}
	return rows, nil
}

// Table3Report renders the measured-vs-paper table.
func Table3Report(rows []Table3Row) *report.Table {
	t := report.NewTable("Table 3: cache behaviour of each benchmark (single thread)",
		"benchmark", "suite", "type", "L2 miss rate %", "paper %", "IPC")
	for _, r := range rows {
		t.AddRow(r.Name, r.Suite, r.Type, r.L2MissRate, r.PaperL2Rate, r.IPC)
	}
	t.AddNote("type split: MEM >= 1%% L2 miss rate; the split and ordering are the reproduction targets")
	return t
}
