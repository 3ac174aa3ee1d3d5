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

// Figure6RegSizes are the register-pool sizes swept in the paper.
var Figure6RegSizes = []int{320, 352, 384}

// Figure6Policies are the comparison points of Figures 6 and 7.
var Figure6Policies = []string{policy.NameICount, policy.NameFlushPP, policy.NameDG, policy.NameSRA}

// gainPoint is one configuration of a Figure 6 or 7 sweep, with the label
// of its report column.
type gainPoint struct {
	label string
	cfg   config.Config
}

// GainCurve is DCRA's average Hmean improvement (%) over each of
// Figure6Policies at each point of a configuration sweep, over all 36
// workloads: the result of Figures 6 and 7.
type GainCurve struct {
	Improvement map[string][]float64 // indexed like the sweep's points

	title, note string
	points      []gainPoint
}

// gainCells enumerates the cells of a gain curve: all 36 workloads under
// DCRA and each comparison policy, at each point.
func gainCells(points []gainPoint) []campaign.Cell {
	var cells []campaign.Cell
	for _, pt := range points {
		cells = append(cells, allWorkloadCells(pt.cfg,
			append([]string{policy.NameDCRA}, Figure6Policies...)...)...)
	}
	return cells
}

// gainCurve computes the gain curve over points; title and note head and
// close its report.
func (s *Suite) gainCurve(points []gainPoint, title, note string) (GainCurve, error) {
	if err := s.Prefetch(gainCells(points)); err != nil {
		return GainCurve{}, err
	}
	res := GainCurve{Improvement: make(map[string][]float64), title: title, note: note, points: points}
	for _, pt := range points {
		_, dcraHM, err := s.averages(pt.cfg, workload.All(), policy.NameDCRA)
		if err != nil {
			return res, err
		}
		for _, pn := range Figure6Policies {
			_, hm, err := s.averages(pt.cfg, workload.All(), pn)
			if err != nil {
				return res, err
			}
			res.Improvement[pn] = append(res.Improvement[pn],
				metrics.Improvement(dcraHM, hm))
		}
	}
	return res, nil
}

// Report renders the curve: one row per comparison policy, one column per
// point.
func (g GainCurve) Report() *report.Table {
	cols := []string{"vs policy"}
	for _, pt := range g.points {
		cols = append(cols, pt.label)
	}
	t := report.NewTable(g.title, cols...)
	for _, pn := range Figure6Policies {
		row := []any{pn}
		for _, v := range g.Improvement[pn] {
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	t.AddNote("%s", g.note)
	return t
}

// figure6Points are Figure 6's configurations, one per register-pool size.
func figure6Points() []gainPoint {
	var points []gainPoint
	for _, regs := range Figure6RegSizes {
		points = append(points, gainPoint{
			label: fmt.Sprintf("%d regs", regs),
			cfg:   config.Baseline().WithPhysRegs(regs),
		})
	}
	return points
}

// Figure6Sweep declares the figure's cells: all 36 workloads under DCRA and
// each comparison policy, at each register-pool size.
func Figure6Sweep() campaign.Sweep {
	return campaign.Sweep{Name: "fig6", Cells: gainCells(figure6Points())}
}

// Figure6 reproduces the paper's Figure 6: DCRA's Hmean advantage as the
// physical register file grows. Paper shape: the advantage over SRA and
// ICOUNT shrinks with more registers (starvation gets rarer), while the
// advantage over DG and FLUSH++ grows (their deallocation/stall become
// needless waste when resources are plentiful).
func Figure6(s *Suite) (GainCurve, error) {
	return s.gainCurve(figure6Points(),
		"Figure 6: DCRA Hmean improvement (%) vs register pool size",
		"paper shape: advantage over SRA/ICOUNT shrinks with more registers; over DG/FLUSH++ it grows")
}
