package experiments

import (
	"fmt"

	"dcra/internal/campaign"
	"dcra/internal/config"
)

// figure7Points are Figure 7's configurations, one per paper memory-latency
// point (config.PaperLatencies).
func figure7Points() []gainPoint {
	var points []gainPoint
	for _, lat := range config.PaperLatencies {
		points = append(points, gainPoint{
			label: fmt.Sprintf("lat %d/%d", lat.Mem, lat.L2),
			cfg:   config.Baseline().WithMemLatency(lat.Mem, lat.L2),
		})
	}
	return points
}

// Figure7Sweep declares the figure's cells: all 36 workloads under DCRA and
// each comparison policy, at each latency point.
func Figure7Sweep() campaign.Sweep {
	return campaign.Sweep{Name: "fig7", Cells: gainCells(figure7Points())}
}

// Figure7 reproduces the paper's Figure 7: DCRA's Hmean advantage as memory
// latency grows. DCRA's sharing factor follows the paper's per-latency
// tuning (core.OptionsForLatency). Paper shape: ICOUNT degrades hard with
// latency (no memory awareness), DG's gap widens, FLUSH++ is the only
// policy that closes on DCRA at 500 cycles (deallocating on a miss pays off
// when misses pin resources for longer).
func Figure7(s *Suite) (GainCurve, error) {
	return s.gainCurve(figure7Points(),
		"Figure 7: DCRA Hmean improvement (%) vs memory latency",
		"paper shape: ICOUNT gap widens sharply with latency; FLUSH++ is the only policy closing on DCRA at 500 cycles")
}
