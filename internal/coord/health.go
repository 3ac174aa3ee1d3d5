package coord

// CellSLO declares nothing: the coordinator evaluates no latency objective.
//
// Deprecated: it remains only because the benchmark's campaign rig
// (perfbench/campaign.go) still sets Options.CellSLO; ROADMAP item 8 deletes
// it with that line.
type CellSLO struct {
	Quantile float64
	Window   int
}

// HealthTick does nothing.
//
// Deprecated: it remains only because the benchmark's campaign rig still
// calls it; ROADMAP item 8 deletes it with those lines.
func (c *Coordinator) HealthTick() {}
