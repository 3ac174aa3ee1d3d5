// Command benchjson records the repo's performance trajectory as JSON: raw
// simulator speed (the same measurement as BenchmarkSimulatorSpeed), the
// quick-suite Figure 5 wall-clock plus allocation totals (the same
// measurement as BenchmarkFigure5), and the sampled-mode sweep's wall-clock,
// speedup, and exact-vs-sampled parity statistics. CI and PERFORMANCE.md use
// it to track ns/cycle across PRs without parsing `go test -bench` output.
//
// Usage:
//
//	benchjson                      # writes bench.json in the working dir
//	benchjson -out BENCH_PR2.json  # the committed per-PR trajectory points
//	benchjson -cycles 2000000      # longer simulator-speed measurement
//	benchjson -diff A.json B.json  # per-metric deltas; exit 1 on regression,
//	                               # 2 if A and B ran on different shapes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dcra"
	"dcra/internal/campaign"
	"dcra/internal/experiments"
	"dcra/internal/obs"
	"dcra/internal/sample"
)

// Record is the JSON schema of one trajectory point.
type Record struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Workers     int    `json:"workers"`

	// Raw cycle-kernel speed, BenchmarkSimulatorSpeed's measurement.
	SimCycles   uint64  `json:"sim_cycles"`
	NsPerCycle  float64 `json:"ns_per_cycle"`
	SimThreads  int     `json:"sim_threads"`
	SimPolicy   string  `json:"sim_policy"`
	SimDuration float64 `json:"sim_duration_seconds"`

	// Quick-suite Figure 5, BenchmarkFigure5's measurement.
	Figure5Seconds    float64 `json:"figure5_quick_seconds"`
	Figure5AllocBytes uint64  `json:"figure5_alloc_bytes"`
	Figure5Allocs     uint64  `json:"figure5_allocs"`

	// Headline reproduction metrics, to confirm optimisation did not move
	// the science.
	VsICount  float64 `json:"fig5_hmean_vs_icount_pct"`
	VsDG      float64 `json:"fig5_hmean_vs_dg_pct"`
	VsFlushPP float64 `json:"fig5_hmean_vs_flushpp_pct"`

	// Sampled-mode quick Figure 5: the same sweep under SMARTS sampling, its
	// speedup over the exact sweep above, and the parity contract (every
	// cell's sampled throughput within its reported 99.7% CI of exact).
	SampledSeconds float64                 `json:"figure5_sampled_quick_seconds"`
	SampledSpeedup float64                 `json:"figure5_sampled_speedup"`
	Parity         experiments.ParityStats `json:"fig5_sampled_parity"`

	// Adaptive-sampling efficiency: how much detailed simulation the sampled
	// sweep actually paid for, harvested from the runner's obs counters.
	// DetailedFraction is detailed-simulated cycles (windows + pilot +
	// warmups) over the exact-equivalent cycles the same runs would have
	// cost; PilotWarmupShare is the slice of those detailed cycles that is
	// measurement overhead rather than measured windows; MeanWindows is the
	// mean stopping point per sampled run (between min_windows and windows).
	SampledRuns      int64   `json:"sampled_runs"`
	MeanWindows      float64 `json:"sampled_mean_windows_per_run"`
	DetailedFraction float64 `json:"sampled_detailed_cycle_fraction"`
	PilotWarmupShare float64 `json:"sampled_pilot_warmup_share"`
}

func main() {
	var (
		out    = flag.String("out", "bench.json", "output JSON path")
		cycles = flag.Uint64("cycles", 1_000_000, "cycles for the simulator-speed measurement")
		diff   = flag.Bool("diff", false, "compare two trajectory points: benchjson -diff OLD.json NEW.json")
		thresh = flag.Float64("threshold", 0.10, "with -diff: relative wrong-direction move that counts as a regression")
	)
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff needs exactly two record paths, got %d", flag.NArg()))
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1), *thresh, os.Stdout, os.Stderr))
	}
	if *cycles == 0 {
		fatal(fmt.Errorf("-cycles must be > 0"))
	}

	rec := Record{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}

	// Raw simulator speed: the 4-thread DCRA machine of
	// BenchmarkSimulatorSpeed, 5k warmup then a timed run.
	m, err := dcra.NewMachine(dcra.BaselineConfig(), []dcra.Profile{
		dcra.MustProfile("gzip"), dcra.MustProfile("mcf"),
		dcra.MustProfile("art"), dcra.MustProfile("eon"),
	}, dcra.NewDCRA(), 1)
	if err != nil {
		fatal(err)
	}
	m.Run(5_000)
	start := time.Now()
	m.Run(*cycles)
	simDur := time.Since(start)
	rec.SimCycles = *cycles
	rec.NsPerCycle = float64(simDur.Nanoseconds()) / float64(*cycles)
	rec.SimThreads = 4
	rec.SimPolicy = "DCRA"
	rec.SimDuration = simDur.Seconds()

	// Quick-suite Figure 5 wall-clock and allocation totals, using the same
	// reduced windows as BenchmarkFigure5.
	s := experiments.NewQuickSuite()
	s.Runner.Warmup, s.Runner.Measure = 15_000, 60_000
	rec.Workers = s.Engine.Workers()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	f5, err := experiments.Figure5(s)
	if err != nil {
		fatal(err)
	}
	rec.Figure5Seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	rec.Figure5AllocBytes = after.TotalAlloc - before.TotalAlloc
	rec.Figure5Allocs = after.Mallocs - before.Mallocs
	rec.VsICount = f5.AvgHmeanImprovement[experiments.PolICount]
	rec.VsDG = f5.AvgHmeanImprovement[experiments.PolDG]
	rec.VsFlushPP = f5.AvgHmeanImprovement[experiments.PolFlushPP]

	// Sampled-mode Figure 5: time the same sweep under the adaptive SMARTS
	// protocol (variance-driven windows, drift-sized skip, warm-tail gaps),
	// then run the parity harness — the exact cells above and the sampled
	// cells just timed are both memoised, so parity adds only the comparison.
	sampled := experiments.NewQuickSuite()
	sampled.Runner.Warmup, sampled.Runner.Measure = 15_000, 60_000
	sampled.Mode = campaign.ModeSampled
	sampled.Sampling = sample.DeriveAdaptive(15_000, 60_000).Config()
	reg := obs.NewRegistry()
	sampled.Runner.Obs = reg
	start = time.Now()
	if err := sampled.Prefetch(experiments.Figure5Sweep().Cells); err != nil {
		fatal(err)
	}
	rec.SampledSeconds = time.Since(start).Seconds()
	if rec.SampledSeconds > 0 {
		rec.SampledSpeedup = rec.Figure5Seconds / rec.SampledSeconds
	}
	if _, parity, err := experiments.Figure5Parity(s, sampled); err != nil {
		fatal(err)
	} else {
		rec.Parity = parity
	}
	rec.SampledRuns = reg.Counter("sample.runs").Value()
	if rec.SampledRuns > 0 {
		detailed := reg.Counter("sample.cycles.detailed").Value()
		overhead := reg.Counter("sample.cycles.overhead").Value()
		rec.MeanWindows = float64(reg.Counter("sample.windows").Value()) / float64(rec.SampledRuns)
		exactEquiv := rec.SampledRuns * int64(sampled.Runner.Warmup+sampled.Runner.Measure)
		rec.DetailedFraction = float64(detailed+overhead) / float64(exactEquiv)
		rec.PilotWarmupShare = float64(overhead) / float64(detailed+overhead)
	}

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchjson: %.0f ns/cycle, figure5 quick %.1fs exact / %.1fs sampled (%.2fx, %d/%d within CI, %d workers) -> %s\n",
		rec.NsPerCycle, rec.Figure5Seconds, rec.SampledSeconds, rec.SampledSpeedup,
		rec.Parity.WithinCI, rec.Parity.Cells, rec.Workers, *out)
	fmt.Printf("benchjson: adaptive sampling: %.2f windows/run over %d runs, %.1f%% detailed, %.1f%% of that pilot+warmup\n",
		rec.MeanWindows, rec.SampledRuns, 100*rec.DetailedFraction, 100*rec.PilotWarmupShare)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
