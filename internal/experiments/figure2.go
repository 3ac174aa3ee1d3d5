package experiments

import (
	"fmt"

	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/cpu"
	"dcra/internal/report"
	"dcra/internal/trace"
)

// Figure2Fractions are the resource fractions swept in the paper (percent).
var Figure2Fractions = []float64{12.5, 25, 37.5, 50, 62.5, 75, 87.5, 100}

// Figure2Resources are the five curves of the figure.
var Figure2Resources = []cpu.Resource{
	cpu.RIntIQ, cpu.RLSIQ, cpu.RFPIQ, cpu.RIntRegs, cpu.RFPRegs,
}

// Figure2Result holds the averaged curves: PercentOfFull[r][i] is the mean
// fraction of full-speed IPC with Figure2Fractions[i] percent of resource r.
type Figure2Result struct {
	PercentOfFull map[cpu.Resource][]float64
}

// figure2Config is the paper's setup for this experiment: 160 rename
// registers, 32-entry issue queues, perfect data L1.
func figure2Config() config.Config {
	cfg := config.Baseline()
	cfg.IntQueue, cfg.FPQueue, cfg.LSQueue = 32, 32, 32
	cfg.PhysRegs = 160 + cfg.ArchRegs // 160 rename registers single-threaded
	cfg.PerfectDCache = true
	return cfg
}

// figure2Run is one point of the restriction grid, tied to its cell.
type figure2Run struct {
	name string
	rc   cpu.Resource
	frac int // index into Figure2Fractions
	cell campaign.Cell
}

// figure2Runs enumerates the restriction grid: per the paper's footnote,
// FP-resource curves average only the FP benchmarks.
func figure2Runs(benchmarks []string) []figure2Run {
	cfg := figure2Config()
	var runs []figure2Run
	for _, name := range benchmarks {
		prof := trace.MustProfile(name)
		for _, rc := range Figure2Resources {
			if rc.IsFP() && !prof.FP {
				continue // FP curves average FP benchmarks only
			}
			for i, frac := range Figure2Fractions {
				runs = append(runs, figure2Run{
					name: name, rc: rc, frac: i,
					cell: benchCell(cfg, name, capPolName(rc, frac)),
				})
			}
		}
	}
	return runs
}

// Figure2Sweep declares the figure's cells: one full-speed ICOUNT baseline
// per benchmark (the restriction ratios divide by it) plus the whole
// (benchmark, resource, fraction) restriction grid. nil selects the full
// Table 3 suite.
func Figure2Sweep(benchmarks []string) campaign.Sweep {
	if benchmarks == nil {
		benchmarks = trace.Names()
	}
	cfg := figure2Config()
	s := campaign.Sweep{Name: "fig2"}
	for _, name := range benchmarks {
		s.Cells = append(s.Cells, benchCell(cfg, name, polBase))
	}
	for _, r := range figure2Runs(benchmarks) {
		s.Cells = append(s.Cells, r.cell)
	}
	return s
}

// Figure2 reproduces the paper's Figure 2: single-thread IPC (relative to
// full speed) as one resource class is restricted, averaged over the
// benchmarks. The `benchmarks` argument subsets the suite (nil = all).
//
// The declared sweep is executed on the suite's worker pool; the render loop
// below consumes exactly the sweep's cells, so accumulation over the
// completed grid is deterministic.
func Figure2(s *Suite, benchmarks []string) (Figure2Result, error) {
	if benchmarks == nil {
		benchmarks = trace.Names()
	}
	cfg := figure2Config()
	res := Figure2Result{PercentOfFull: make(map[cpu.Resource][]float64)}
	if err := s.Prefetch(Figure2Sweep(benchmarks).Cells); err != nil {
		return res, err
	}

	// Full-speed baselines: the restriction ratios divide by them.
	full := make(map[string]float64, len(benchmarks))
	for _, name := range benchmarks {
		r, err := s.RunCell(benchCell(cfg, name, polBase))
		if err != nil {
			return res, err
		}
		if r.IPCs[0] <= 0 {
			return res, fmt.Errorf("experiments: %s has zero full-speed IPC", name)
		}
		full[name] = r.IPCs[0]
	}

	type curveAcc struct {
		sum []float64
		n   int
	}
	acc := make(map[cpu.Resource]*curveAcc)
	for _, rc := range Figure2Resources {
		acc[rc] = &curveAcc{sum: make([]float64, len(Figure2Fractions))}
	}
	type benchResource struct {
		name string
		rc   cpu.Resource
	}
	seen := make(map[benchResource]bool) // (name, resource) pairs counted once
	for _, t := range figure2Runs(benchmarks) {
		r, err := s.RunCell(t.cell)
		if err != nil {
			return res, err
		}
		a := acc[t.rc]
		if k := (benchResource{t.name, t.rc}); !seen[k] {
			seen[k] = true
			a.n++
		}
		a.sum[t.frac] += r.IPCs[0] / full[t.name]
	}
	for _, rc := range Figure2Resources {
		a := acc[rc]
		curve := make([]float64, len(Figure2Fractions))
		for i := range curve {
			if a.n > 0 {
				curve[i] = a.sum[i] / float64(a.n)
			}
		}
		res.PercentOfFull[rc] = curve
	}
	return res, nil
}

// Report renders the curves.
func (f Figure2Result) Report() *report.Table {
	cols := []string{"% of resource"}
	for _, rc := range Figure2Resources {
		cols = append(cols, rc.String())
	}
	t := report.NewTable("Figure 2: % of full speed vs % of one resource (single thread, perfect L1D)", cols...)
	for i, frac := range Figure2Fractions {
		row := []any{fmt.Sprintf("%.1f", frac)}
		for _, rc := range Figure2Resources {
			row = append(row, fmt.Sprintf("%.3f", f.PercentOfFull[rc][i]))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: ~90%% of full speed at 37.5%% of resources; FP columns average FP benchmarks only")
	return t
}
