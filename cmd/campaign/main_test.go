package main

import (
	"testing"

	"dcra/internal/campaign"
	"dcra/internal/experiments"
	"dcra/internal/sample"
)

// TestGCKeep checks gc's keep-set over every registered sweep, per
// measurement protocol: exact cells and cells sampled under the protocol's
// own schedule are live; a sampled cell without a schedule (the retired
// fixed protocol's key) or under another protocol's schedule is garbage,
// as is a cell no sweep enumerates.
func TestGCKeep(t *testing.T) {
	type keepCase struct {
		name string
		cell campaign.Cell
		keep bool
	}
	for _, p := range []campaign.Params{
		{Warmup: 15_000, Measure: 60_000, Seed: 1},
		{Warmup: 20_000, Measure: 80_000, Seed: 2},
		{Warmup: 5_000, Measure: 20_000, Seed: 3},
	} {
		stale := experiments.Figure5Sweep().Cells[0]
		stale.Cfg.MemLatency = 12_345
		cases := []keepCase{{"stale exact", stale, false}}
		stamp := sample.DeriveAdaptive(p.Warmup, p.Measure).Config()
		for _, sp := range experiments.Specs() {
			sweep := sp.Sweep()
			for _, c := range sweep.Cells {
				cases = append(cases, keepCase{sp.Key + " exact", c, true})
			}
			for _, c := range experiments.ApplyModeSampling(sweep, campaign.ModeSampled, stamp).Cells {
				if c.Mode != campaign.ModeSampled {
					continue // bench/sched cells stay exact: covered above
				}
				fixed := c.Exact().Sampled()
				other := fixed
				other.Cfg.Sampling = sample.DeriveAdaptive(p.Warmup+1, p.Measure).Config()
				cases = append(cases,
					keepCase{sp.Key + " sampled", c, true},
					keepCase{sp.Key + " fixed-protocol sampled", fixed, false},
					keepCase{sp.Key + " sampled under another protocol", other, false})
			}
		}
		keep := gcKeep(p)
		for _, tc := range cases {
			if keep[tc.cell.Key()] != tc.keep {
				t.Errorf("%+v: %s %s: kept = %v, want %v", p, tc.name, tc.cell, !tc.keep, tc.keep)
			}
		}
	}
}
