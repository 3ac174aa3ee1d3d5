package experiments

import (
	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/metrics"
	"dcra/internal/policy"
	"dcra/internal/report"
	"dcra/internal/workload"
)

// ActivityResult quantifies front-end work: total fetched uops under
// FLUSH++ relative to DCRA (the paper's "FLUSH++ fetches 108% more
// instructions" measurement at 300-cycle latency, 118% at 500).
type ActivityResult struct {
	MemLatency     int
	ExtraFetchPct  float64 // (fetched(FLUSH++)/fetched(DCRA) - 1) * 100
	FetchedFlushPP uint64
	FetchedDCRA    uint64
}

// ActivityLatencies are the latency points of the paper's front-end
// activity measurement.
var ActivityLatencies = []int{300, 500}

// ActivitySweep declares the measurement's cells: all 36 workloads under
// FLUSH++ and DCRA at each reported latency point.
func ActivitySweep() campaign.Sweep {
	s := campaign.Sweep{Name: "activity"}
	for _, lat := range ActivityLatencies {
		s.Cells = append(s.Cells, allWorkloadCells(config.Baseline().WithPaperMemLatency(lat), policy.NameFlushPP, policy.NameDCRA)...)
	}
	return s
}

// FrontEndActivity measures the re-fetch overhead FLUSH++ pays for its
// squashes, summed over all 36 workloads, at the given memory latency
// (paired with the paper's matching L2 latency).
func FrontEndActivity(s *Suite, memLatency int) (ActivityResult, error) {
	cfg := config.Baseline().WithPaperMemLatency(memLatency)
	if err := s.Prefetch(allWorkloadCells(cfg, policy.NameFlushPP, policy.NameDCRA)); err != nil {
		return ActivityResult{MemLatency: memLatency}, err
	}
	res := ActivityResult{MemLatency: memLatency}
	for _, w := range workload.All() {
		rf, err := s.run(cfg, w, policy.NameFlushPP)
		if err != nil {
			return res, err
		}
		rd, err := s.run(cfg, w, policy.NameDCRA)
		if err != nil {
			return res, err
		}
		res.FetchedFlushPP += rf.Stats.TotalFetched()
		res.FetchedDCRA += rd.Stats.TotalFetched()
	}
	if res.FetchedDCRA > 0 {
		res.ExtraFetchPct = 100 * (float64(res.FetchedFlushPP)/float64(res.FetchedDCRA) - 1)
	}
	return res, nil
}

// ActivityReport renders the front-end activity comparison.
func ActivityReport(results []ActivityResult) *report.Table {
	t := report.NewTable("Front-end activity: extra fetch work of FLUSH++ over DCRA",
		"mem latency", "FLUSH++ fetched", "DCRA fetched", "extra %")
	for _, r := range results {
		t.AddRow(r.MemLatency, r.FetchedFlushPP, r.FetchedDCRA, r.ExtraFetchPct)
	}
	t.AddNote("paper: +108%% at 300 cycles, +118%% at 500 (FLUSH++ redoes squashed work)")
	return t
}

// MLPResult is the average memory-level parallelism (overlapped main-memory
// misses) per workload kind under DCRA and FLUSH++.
type MLPResult struct {
	Kind        workload.Kind
	DCRA        float64
	FlushPP     float64
	IncreasePct float64
}

// MLPSweep declares the measurement's cells: all 36 workloads under DCRA
// and FLUSH++ on the baseline configuration.
func MLPSweep() campaign.Sweep {
	return campaign.Sweep{
		Name:  "mlp",
		Cells: allWorkloadCells(config.Baseline(), policy.NameDCRA, policy.NameFlushPP),
	}
}

// MemoryParallelism reproduces the paper's overlapping-miss measurement:
// DCRA lets missing threads keep issuing loads, raising MLP over FLUSH++
// (paper: +22% ILP, +32% MIX, ~+0.5% MEM; +18% average).
func MemoryParallelism(s *Suite) ([]MLPResult, error) {
	cfg := config.Baseline()
	if err := s.Prefetch(MLPSweep().Cells); err != nil {
		return nil, err
	}
	var out []MLPResult
	for _, kind := range workload.Kinds {
		var dv, fv []float64
		for _, n := range threadCounts {
			for _, w := range workload.Groups(n, kind) {
				rd, err := s.run(cfg, w, policy.NameDCRA)
				if err != nil {
					return nil, err
				}
				rf, err := s.run(cfg, w, policy.NameFlushPP)
				if err != nil {
					return nil, err
				}
				dv = append(dv, rd.Stats.AvgMLP())
				fv = append(fv, rf.Stats.AvgMLP())
			}
		}
		r := MLPResult{Kind: kind, DCRA: metrics.Mean(dv), FlushPP: metrics.Mean(fv)}
		r.IncreasePct = metrics.Improvement(r.DCRA, r.FlushPP)
		out = append(out, r)
	}
	return out, nil
}

// MLPReport renders the MLP comparison.
func MLPReport(rows []MLPResult) *report.Table {
	t := report.NewTable("Memory parallelism: avg overlapped L2 misses",
		"workload kind", "DCRA", "FLUSH++", "increase %")
	for _, r := range rows {
		t.AddRow(string(r.Kind), r.DCRA, r.FlushPP, r.IncreasePct)
	}
	t.AddNote("paper: DCRA overlaps ~18%% more misses on average (+22%% ILP, +32%% MIX, ~0.5%% MEM)")
	return t
}
