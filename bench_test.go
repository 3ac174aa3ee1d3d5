// Benchmarks regenerating the paper's tables and figures (EXPERIMENTS.md).
// Each BenchmarkFigureN/BenchmarkTableN runs a reduced-window version of
// the corresponding experiment and reports the paper's headline statistics
// as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction harness. `campaign run -exp KEY -store DIR`
// runs the same experiments with full windows and prints the complete
// tables.
package dcra_test

import (
	"testing"

	"dcra"
	"dcra/internal/cpu"
	"dcra/internal/experiments"
	"dcra/internal/obs"
	"dcra/internal/policy"
	"dcra/internal/sim"
)

// quickSuite builds a reduced-window suite per benchmark iteration set.
func quickSuite() *experiments.Suite {
	s := experiments.NewSuite()
	s.Runner.Warmup = 15_000
	s.Runner.Measure = 60_000
	return s
}

// BenchmarkTable1 regenerates the sharing-model table (pure arithmetic).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 10 {
			b.Fatal("table 1 wrong size")
		}
	}
}

// BenchmarkFigure2 runs the resource-restriction curves on a benchmark
// subset (one integer, one FP; full sweep with `campaign run -exp fig2`).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		res, err := experiments.Figure2(s, []string{"gzip", "swim"})
		if err != nil {
			b.Fatal(err)
		}
		curve := res.PercentOfFull[cpu.RIntIQ]
		b.ReportMetric(curve[2]*100, "%full@37.5%intIQ")
	}
}

// BenchmarkTable3 measures the single-thread cache-behaviour table on the
// MEM suite (the calibration-sensitive half).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rows, err := experiments.Table3(s,
			[]string{"mcf", "art", "swim", "twolf"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].L2MissRate, "mcf-l2miss%")
	}
}

// BenchmarkTable5 measures the 2-thread phase-pair distribution.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rows, err := experiments.Table5(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Kind == "MIX" {
				b.ReportMetric(r.Mixed, "MIX-split-phase-%")
			}
		}
	}
}

// BenchmarkFigure4 measures DCRA-vs-SRA improvements (paper: +7% tp, +8% hmean).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		f4, err := experiments.Figure4(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f4.AvgThroughput, "tp-improvement-%")
		b.ReportMetric(f4.AvgHmean, "hmean-improvement-%")
	}
}

// BenchmarkFigure5 measures DCRA against ICOUNT/DG/FLUSH++ (paper Hmean
// averages: +18%, +41%, +4%).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		f5, err := experiments.Figure5(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f5.AvgHmeanImprovement[policy.NameICount], "vsICOUNT-%")
		b.ReportMetric(f5.AvgHmeanImprovement[policy.NameDG], "vsDG-%")
		b.ReportMetric(f5.AvgHmeanImprovement[policy.NameFlushPP], "vsFLUSH++-%")
	}
}

// BenchmarkFigure6 sweeps the register-file size (paper: DCRA's edge over
// SRA/ICOUNT shrinks, over DG/FLUSH++ grows).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		f6, err := experiments.Figure6(s)
		if err != nil {
			b.Fatal(err)
		}
		sra := f6.Improvement[policy.NameSRA]
		b.ReportMetric(sra[0]-sra[len(sra)-1], "SRA-gap-shrink-%")
	}
}

// BenchmarkFigure7 sweeps memory latency (paper: ICOUNT degrades hardest).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		f7, err := experiments.Figure7(s)
		if err != nil {
			b.Fatal(err)
		}
		ic := f7.Improvement[policy.NameICount]
		b.ReportMetric(ic[len(ic)-1]-ic[0], "ICOUNT-gap-growth-%")
	}
}

// BenchmarkFrontEndActivity measures FLUSH++'s extra fetch work (paper:
// +108% at 300-cycle latency).
func BenchmarkFrontEndActivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		r, err := experiments.FrontEndActivity(s, 300)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ExtraFetchPct, "extra-fetch-%")
	}
}

// BenchmarkMemoryParallelism measures DCRA's MLP gain over FLUSH++
// (paper: +18% average).
func BenchmarkMemoryParallelism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rows, err := experiments.MemoryParallelism(s)
		if err != nil {
			b.Fatal(err)
		}
		var avg float64
		for _, r := range rows {
			avg += r.IncreasePct
		}
		b.ReportMetric(avg/float64(len(rows)), "mlp-increase-%")
	}
}

// BenchmarkMachineSetup measures the per-cell machine acquisition cost the
// lifecycle overhaul targets: "fresh" pays full construction per cell (the
// pre-PR4 behaviour), "pooled" draws a recycled machine and Reinit-s it in
// place. allocs/op is the headline number — pooling must cut it by >= 50%.
func BenchmarkMachineSetup(b *testing.B) {
	cfg := dcra.BaselineConfig()
	profiles := []dcra.Profile{
		dcra.MustProfile("gzip"), dcra.MustProfile("mcf"),
		dcra.MustProfile("art"), dcra.MustProfile("eon"),
	}
	const warm = 200 // touch the machine like a real cell would
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := dcra.NewMachine(cfg, profiles, dcra.NewDCRA(), 1)
			if err != nil {
				b.Fatal(err)
			}
			m.Run(warm)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		pool := sim.NewMachinePool()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := pool.Get(cfg, profiles, dcra.NewDCRA(), 1)
			if err != nil {
				b.Fatal(err)
			}
			m.Run(warm)
			pool.Put(m)
		}
	})
}

// benchMachine builds the 4-thread DCRA machine the simulator-speed
// benchmarks share, warmed past its cold caches.
func benchMachine(b *testing.B) *cpu.Machine {
	b.Helper()
	m, err := dcra.NewMachine(dcra.BaselineConfig(), []dcra.Profile{
		dcra.MustProfile("gzip"), dcra.MustProfile("mcf"),
		dcra.MustProfile("art"), dcra.MustProfile("eon"),
	}, dcra.NewDCRA(), 1)
	if err != nil {
		b.Fatal(err)
	}
	m.Run(5_000)
	return m
}

// BenchmarkSimulatorSpeed measures raw simulation throughput (cycles/op).
func BenchmarkSimulatorSpeed(b *testing.B) {
	m := benchMachine(b)
	b.ResetTimer()
	m.Run(uint64(b.N))
}

// BenchmarkFastForward prices functional fast-forward on its own — no
// detailed cycles, only the stream advance plus warming. Each op is one
// committed uop per thread (4 threads), driven in gap-sized budgets the way
// the sampled runner issues them. "full" trains caches/TLBs/predictor for
// every skipped uop (a warm tail as long as the gap); "warmtail" skims the
// gap body with stats-only stream advance and trains only the final uops
// before the would-be window — the sampled protocol's gap mode. The uops/s
// metric counts all threads.
func BenchmarkFastForward(b *testing.B) {
	const gap = 16_384 // per-thread uops per budget call, ~ a sampling gap
	run := func(b *testing.B, ff func(m *cpu.Machine, budgets []uint64)) {
		m := benchMachine(b)
		budgets := make([]uint64, m.NumThreads())
		b.ResetTimer()
		var done uint64
		for done < uint64(b.N) {
			n := min(gap, uint64(b.N)-done)
			for t := range budgets {
				budgets[t] = n
			}
			ff(m, budgets)
			done += n
		}
		b.ReportMetric(float64(done)*float64(len(budgets))/b.Elapsed().Seconds(), "uops/s")
	}
	b.Run("full", func(b *testing.B) {
		run(b, func(m *cpu.Machine, budgets []uint64) { m.FastForwardBudgetsTail(budgets, gap) })
	})
	b.Run("warmtail", func(b *testing.B) {
		run(b, func(m *cpu.Machine, budgets []uint64) { m.FastForwardBudgetsTail(budgets, 3072) })
	})
}

// BenchmarkDispatchCommit prices the dispatch/issue/commit kernel under a
// load built to keep it the bottleneck: four ILP-class threads whose working
// sets sit in L1 after warmup, so cycles are spent moving uops through
// rename/dispatch, the issue queues and the commit walk rather than waiting
// on memory. Reported uops/cycle confirms the kernel stayed dispatch-bound;
// ns/op is the per-cycle price of the micro-structure.
func BenchmarkDispatchCommit(b *testing.B) {
	m, err := dcra.NewMachine(dcra.BaselineConfig(), []dcra.Profile{
		dcra.MustProfile("gzip"), dcra.MustProfile("eon"),
		dcra.MustProfile("crafty"), dcra.MustProfile("bzip2"),
	}, dcra.NewDCRA(), 1)
	if err != nil {
		b.Fatal(err)
	}
	m.Run(5_000)
	m.ResetStats()
	b.ResetTimer()
	m.Run(uint64(b.N))
	b.StopTimer()
	var committed uint64
	for t := range m.Stats().Threads {
		committed += m.Stats().Threads[t].Committed
	}
	b.ReportMetric(float64(committed)/float64(b.N), "uops/cycle")
}

// BenchmarkSimulatorSpeedTelemetryOff drives the kernel in probe-sized
// chunks with every telemetry hook present but disabled (nil instruments,
// nil tracer): the contract is 0 allocs/op and speed indistinguishable from
// BenchmarkSimulatorSpeed.
func BenchmarkSimulatorSpeedTelemetryOff(b *testing.B) {
	m := benchMachine(b)
	var (
		reg    *obs.Registry // nil: disabled
		tracer *obs.Tracer   // nil: disabled
	)
	cells := reg.Counter("bench.chunks")
	hist := reg.Histogram("bench.chunk.us", obs.DurationBounds)
	b.ReportAllocs()
	b.ResetTimer()
	const chunk = 10_000
	var done uint64
	for done < uint64(b.N) {
		n := min(chunk, uint64(b.N)-done)
		end := tracer.Span(0, 0, "chunk", "bench")
		m.Run(n)
		end()
		cells.Inc()
		hist.Observe(int64(n))
		done += n
	}
}

// BenchmarkSimulatorSpeedTelemetryOn runs the identical chunked loop with
// the always-on layer live — a real registry and a recording tracer, the
// instrumentation the engine and coordinator attach per cell — and must stay
// within 2% of BenchmarkSimulatorSpeed (PERFORMANCE.md, "Telemetry
// overhead"). The probe is priced separately below: it is an explicit
// opt-in, never attached by default.
func BenchmarkSimulatorSpeedTelemetryOn(b *testing.B) {
	m := benchMachine(b)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	cells := reg.Counter("bench.chunks")
	hist := reg.Histogram("bench.chunk.us", obs.DurationBounds)
	b.ReportAllocs()
	b.ResetTimer()
	const chunk = 10_000
	var done uint64
	for done < uint64(b.N) {
		n := min(chunk, uint64(b.N)-done)
		end := tracer.Span(0, 0, "chunk", "bench")
		m.Run(n)
		end()
		cells.Inc()
		hist.Observe(int64(n))
		done += n
	}
}

// BenchmarkSimulatorSpeedProbed prices the opt-in probe (`smtsim -probe N`,
// sim.ProbeRun): the machine runs in interval-sized chunks and each tick
// reads the committed-uop counts and ROB occupancy it already keeps, so the
// cost is a few loads per thread per interval.
func BenchmarkSimulatorSpeedProbed(b *testing.B) {
	m := benchMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	sim.ProbeRun(m, uint64(b.N), 10_000)
}
