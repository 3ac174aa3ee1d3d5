// Package sample implements SMARTS-style statistical sampling over the
// detailed simulator: a deterministic schedule of measurement windows
// (detailed warmup with statistics frozen → detailed measurement) separated
// by functional fast-forward gaps, stopping once the estimate is precise
// enough, and reporting per-metric means with standard errors and 99.7%
// confidence intervals (the SMARTS paper's convention — with K between 4
// and 10 windows a 95% interval would be missed by the expected 5%
// of cells for purely statistical reasons, which is useless as a parity
// contract; the 99.7% Student-t interval is wide enough that a miss means a
// real bias, not bad luck).
//
// The simulated process is not stationary — the branch predictor trains and
// prewarmed caches decay toward steady state over tens of thousands of
// cycles — so the schedule is cycle-aligned: gaps are expressed in
// cycle-equivalents and each thread fast-forwards round(its measured IPC ×
// gap cycles) uops, spreading the K windows across the same cycle interval
// the exact protocol measures. The exact protocol's warmup region is handled
// the same way: a pilot window at cycle zero (discarded from the estimate)
// measures commit rates and their drift, a fast-forward gap skips the rest
// of the warmup, and only then do the K windows begin — without the skip,
// early windows measure a half-trained predictor and bias throughput low.
// The exact kernel stays the verifier: the Figure 5 parity harness
// (internal/experiments) asserts every workload's sampled throughput lands
// within the reported confidence interval of its exact run.
//
// Sampled runs are bit-reproducible like everything else in the repo: the
// schedule is a pure function of (Params, measured statistics), fast-forward
// consumes the canonical uop stream, and the summary statistics are computed
// in a fixed order.
package sample

import (
	"fmt"
	"math"

	"dcra/internal/config"
	"dcra/internal/cpu"
	"dcra/internal/obs"
	"dcra/internal/stats"
)

// Params is the resolved sampling schedule of one run (SMARTS-style, made
// adaptive): a half-scale pilot window at cycle zero, discarded from the
// estimate, measures commit rates in two halves and sizes a fast-forward
// through the rest of the first SkipCycles cycle-equivalents from the drift
// between them. MinWindows to Windows repetitions of (Warmup frozen cycles,
// Measure measured cycles) follow, separated by rate-proportional gaps:
// thread t skips round(ipc_t × FFCycles) uops, keeping window positions
// cycle-aligned. After MinWindows windows, more are added only while the
// 99.7% t-interval half-width of the running throughput estimate exceeds
// TargetRelCIPpm parts-per-million of its mean; Windows is the hard cap.
// Each gap body is fast-forwarded with stream-only draws, applying full
// cache/TLB/predictor warming only to the last WarmTail uops per thread
// (WarmTail >= 1).
//
// Every Summary serialises its Params, and sampled results are persisted
// verbatim, so the field set and order are part of the stored format.
type Params struct {
	SkipCycles uint64 // initial region to skip via pilot + fast-forward
	FFCycles   uint64 // rate-proportional gap, in cycle-equivalents
	// FFUops is always zero and nothing reads it: the fixed-uop gap form
	// is retired, but the field stays so every stored Summary keeps its
	// serialised bytes.
	FFUops  uint64
	Warmup  uint64 // detailed warmup cycles per window (stats frozen)
	Measure uint64 // detailed measured cycles per window
	Windows int    // hard cap on the window count

	MinWindows     int    // windows run before the stopping rule applies
	TargetRelCIPpm int64  // stopping target: rel. CI half-width, ppm of mean
	WarmTail       uint64 // per-thread warm uops at each gap's end, >= 1
}

// Validate checks the schedule is runnable under the rules of
// config.SamplingConfig.Validate; a zero Params (no schedule) fails.
func (p Params) Validate() error {
	if err := p.Config().Validate(); err != nil {
		return fmt.Errorf("sample: %w", err)
	}
	return nil
}

// FromConfig converts an explicit config.SamplingConfig into Params.
func FromConfig(sc config.SamplingConfig) Params {
	return Params{SkipCycles: sc.SkipCycles, FFCycles: sc.FFCycles,
		Warmup: sc.Warmup, Measure: sc.Measure, Windows: sc.Windows,
		MinWindows: sc.MinWindows, TargetRelCIPpm: sc.TargetRelCIPpm, WarmTail: sc.WarmTail}
}

// Config converts Params back into the config block form, for stamping onto
// campaign cells: the sampling knobs become part of the cell's content key,
// so results from different schedules can never collide in a store.
func (p Params) Config() config.SamplingConfig {
	return config.SamplingConfig{SkipCycles: p.SkipCycles, FFCycles: p.FFCycles,
		Warmup: p.Warmup, Measure: p.Measure, Windows: p.Windows,
		MinWindows: p.MinWindows, TargetRelCIPpm: p.TargetRelCIPpm, WarmTail: p.WarmTail}
}

// Protocol defaults (DeriveAdaptive). Tuned against the Figure 5 parity
// sweep at both protocol scales. The stopping target looks loose but
// is calibrated to the estimator, not to the error: short windows see large
// phase-to-phase throughput swings (per-window relative std around 25-40%),
// and the floor-count t-quantile (6.4 at four degrees of freedom) multiplies
// that into a floor rel-CI of 50-90% — while the actual sampled-vs-exact
// error the parity sweep observes is an order of magnitude smaller (the
// window mean converges much faster than the naive CI suggests because the
// schedule strides phases deterministically rather than sampling them).
// The target therefore separates cells whose window variance is ordinary
// (stop at the floor) from genuinely erratic ones (keep adding windows up
// to the cap), and the minimum window count plus the parity harness carry
// the accuracy contract.
const (
	adaptiveMinWindows = 4
	adaptiveMaxWindows = 10
	adaptiveTargetPpm  = 1_500_000 // 150% relative CI half-width at 99.7%
	adaptiveWarmTail   = 3072      // uops of full warming per thread per gap
)

// DeriveAdaptive builds the sampling schedule for an exact protocol's
// (warmup, measure) windows: the warmup region is skipped via pilot +
// fast-forward, and each window measures about 1/48 of the measured
// interval. The gap spread anchors to the minimum window count — a run that
// stops at the floor covers the same cycle interval the exact protocol
// measures, and only high-variance cells extend beyond it (the synthetic
// streams are phase-stationary, so later windows estimate the same
// process). The pilot runs at half scale and sizes the warmup skip from its
// observed commit-rate drift, and gaps warm only their WarmTail: see
// RunObserved.
func DeriveAdaptive(warmup, measure uint64) Params {
	p := Params{
		SkipCycles:     warmup,
		Measure:        max(measure/48, 500),
		Windows:        adaptiveMaxWindows,
		MinWindows:     adaptiveMinWindows,
		TargetRelCIPpm: adaptiveTargetPpm,
		WarmTail:       adaptiveWarmTail,
	}
	// The per-window warmup must cover the post-fast-forward refill
	// transient — an empty pipeline restarts in a burst until the first
	// load misses clog the ROB again. Warm-tail gaps keep caches, TLB and
	// predictor trained through the fast-forward, so 2/5 of the measure
	// window covers it at both protocol scales.
	p.Warmup = max(2*p.Measure/5, 250)
	if det := uint64(p.MinWindows) * (p.Warmup + p.Measure); measure > det {
		p.FFCycles = (measure - det) / uint64(p.MinWindows-1)
	}
	return p
}

// Summary reports the sampled estimate of one run: per-window throughputs,
// their mean, standard error and 99.7% confidence half-width, and the same
// triple per thread. Window values are retained verbatim — they are the
// determinism contract's observable (same seed ⇒ identical Summary).
type Summary struct {
	Params Params `json:"params"`

	Throughput       float64   `json:"throughput"`        // mean over windows
	ThroughputStdErr float64   `json:"throughput_stderr"` // s/sqrt(K)
	ThroughputCI     float64   `json:"throughput_ci997"`  // t-quantile half-width
	WindowThroughput []float64 `json:"window_throughput"` // raw per-window values

	IPC       []float64 `json:"ipc"` // per-thread means
	IPCStdErr []float64 `json:"ipc_stderr"`
	IPCCI     []float64 `json:"ipc_ci997"`

	// FastForwarded is the total uops skipped functionally (all threads, all
	// gaps); MeasuredCycles the total detailed cycles measured.
	FastForwarded  uint64 `json:"fast_forwarded"`
	MeasuredCycles uint64 `json:"measured_cycles"`

	// DetailedCycles is the detailed cycles actually simulated (pilot,
	// warmups and measured windows); OverheadCycles the share of those that
	// never reached the estimate (pilot + frozen warmups). Both depend on
	// where the stopping rule landed, so they are observed, not derived
	// from Params.
	DetailedCycles uint64 `json:"detailed_cycles"`
	OverheadCycles uint64 `json:"overhead_cycles"`
}

// tQuantile9985 returns the two-sided 99.7% Student-t quantile for df
// degrees of freedom (tabulated for small df, 2.97 asymptotically).
func tQuantile9985(df int) float64 {
	table := [...]float64{
		1:  212.205,
		2:  18.216,
		3:  8.891,
		4:  6.435,
		5:  5.376,
		6:  4.800,
		7:  4.442,
		8:  4.199,
		9:  4.024,
		10: 3.892,
		11: 3.789,
		12: 3.706,
		13: 3.639,
		14: 3.583,
		15: 3.535,
	}
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(table) {
		return table[df]
	}
	switch {
	case df < 20:
		return 3.40
	case df < 30:
		return 3.24
	case df < 60:
		return 3.10
	default:
		return 2.97
	}
}

// meanStd returns the mean and sample standard deviation of xs, summing in
// slice order (the fixed order is part of bit-reproducibility).
func meanStd(xs []float64) (mean, std float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / n
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / (n - 1))
}

// SamplePID is the trace pid lane group cycle-domain sampling spans
// live on.
const SamplePID = 2

// RunObserved executes the sampling schedule on m and returns the summary
// plus the aggregate statistics over all measured windows (warmup and
// fast-forward excluded). The machine must be freshly built or Reinit-ed;
// afterwards it can be recycled like any other. reg (if set) accumulates
// windows run, relative CI widths and the detailed-vs-fast-forward split,
// and tr (if set) records cycle-domain spans for the pilot and each
// measured window; the schedule and results are identical either way.
func RunObserved(m *cpu.Machine, p Params, reg *obs.Registry, tr *obs.Tracer) (*Summary, *stats.Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	span := func(from uint64, format string, args ...any) {
		if tr != nil {
			tr.CompleteAt(SamplePID, 0, fmt.Sprintf(format, args...), "sample",
				float64(from), float64(m.Cycle()-from))
		}
	}
	if tr != nil {
		tr.Process(SamplePID, "sampling schedule (cycle domain)")
	}
	nt := m.NumThreads()
	sum := &Summary{
		Params:           p,
		WindowThroughput: make([]float64, 0, p.Windows),
		IPC:              make([]float64, nt),
		IPCStdErr:        make([]float64, nt),
		IPCCI:            make([]float64, nt),
	}
	perThread := make([][]float64, nt)
	for t := range perThread {
		perThread[t] = make([]float64, 0, p.Windows)
	}
	agg := stats.New(nt)
	ffTotals := make([]uint64, nt)
	budgets := make([]uint64, nt)
	relTarget := float64(p.TargetRelCIPpm) / 1e6
	var detailed, overhead uint64
	ff := func(label string, args ...any) {
		m.FastForwardBudgetsTail(budgets, p.WarmTail)
		var skipped uint64
		for t := 0; t < nt; t++ {
			if !m.Parked(t) {
				ffTotals[t] += budgets[t]
				skipped += budgets[t]
			}
		}
		if tr != nil {
			// Fast-forward advances no cycles, so the gap is a zero-width
			// marker carrying its uop count in the name.
			span(m.Cycle(), fmt.Sprintf(label, args...)+fmt.Sprintf(" (%d uops)", skipped))
		}
	}
	if p.SkipCycles > 0 {
		// Half-scale pilot with drift-sized skip: settle for half the window
		// warmup, measure commit counts over two half-windows, and size the
		// skip budget from a bounded linear extrapolation of the rate trend
		// between them. The trend carries the information a longer settled
		// pilot would have averaged away — the predictor is still training
		// through the skipped region, so the later rate plus its drift is a
		// better gap-rate estimate than a flat multiple of the pilot mean —
		// which is what lets the pilot run at half the detailed cost.
		// Each half must span at least a couple of main-memory round-trips
		// or memory-bound threads alias their stall bursts into the rate —
		// half the measure window does at both protocol scales.
		settle := p.Warmup / 2
		h := max(p.Measure/2, 1)
		pilotFrom := m.Cycle()
		m.Run(settle)
		span(pilotFrom, "pilot warmup")
		m.ResetStats()
		measureFrom := m.Cycle()
		m.Run(h)
		c1 := make([]uint64, nt)
		for t := 0; t < nt; t++ {
			c1[t] = m.Stats().Threads[t].Committed
		}
		m.Run(h)
		span(measureFrom, "pilot")
		detailed += settle + 2*h
		overhead += settle + 2*h
		if pilot := settle + 2*h; p.SkipCycles > pilot {
			st := m.Stats()
			gap := int64(p.SkipCycles - pilot)
			for t := 0; t < nt; t++ {
				c2 := int64(st.Threads[t].Committed - c1[t])
				// Rate at the gap midpoint, extrapolated from the per-half
				// trend and clamped to ±25% of the later half — real warmup
				// drift saturates, it does not stay linear.
				proj := c2 + (c2-int64(c1[t]))*(int64(h)+gap)/(2*int64(h))
				proj = min(max(proj, c2*3/4), c2*5/4)
				budgets[t] = uint64((proj*gap + int64(h)/2) / int64(h))
			}
			ff("gap skip")
		}
	}
	for k := 0; k < p.Windows; k++ {
		warmFrom := m.Cycle()
		m.Run(p.Warmup)
		span(warmFrom, "warmup %d", k)
		m.ResetStats()
		measureFrom := m.Cycle()
		m.Run(p.Measure)
		span(measureFrom, "window %d", k)
		detailed += p.Warmup + p.Measure
		overhead += p.Warmup
		st := m.Stats()
		sum.WindowThroughput = append(sum.WindowThroughput, st.Throughput())
		for t := 0; t < nt; t++ {
			perThread[t] = append(perThread[t], st.Threads[t].IPC(st.Cycles))
		}
		agg.Accumulate(st)
		if k+1 == p.Windows {
			break
		}
		if k+1 >= p.MinWindows {
			// Sequential stopping: once the running 99.7% interval is
			// tighter than the per-cell target, further windows only buy
			// precision the parity contract does not need. A pure function
			// of the window values so far, so same-seed runs stop at the
			// same window. Stopping also skips the trailing gap outright.
			kk := k + 1
			mean, std := meanStd(sum.WindowThroughput)
			ci := tQuantile9985(kk-1) * std / math.Sqrt(float64(kk))
			if mean > 0 && ci <= mean*relTarget {
				break
			}
		}
		if p.FFCycles == 0 {
			continue
		}
		for t := 0; t < nt; t++ {
			// Rate-proportional: skip what the thread would have committed
			// in FFCycles cycles at its measured rate (integer rounding —
			// determinism needs exact arithmetic).
			budgets[t] = (st.Threads[t].Committed*p.FFCycles + p.Measure/2) / p.Measure
		}
		ff("gap %d", k)
	}

	k := len(sum.WindowThroughput)
	tq := tQuantile9985(k - 1)
	sqrtK := math.Sqrt(float64(k))
	mean, std := meanStd(sum.WindowThroughput)
	sum.Throughput = mean
	sum.ThroughputStdErr = std / sqrtK
	sum.ThroughputCI = tq * sum.ThroughputStdErr
	for t := 0; t < nt; t++ {
		mean, std := meanStd(perThread[t])
		sum.IPC[t] = mean
		sum.IPCStdErr[t] = std / sqrtK
		sum.IPCCI[t] = tq * sum.IPCStdErr[t]
	}
	// The per-window ResetStats wipes the live FastForwarded counter, so the
	// aggregate carries the totals tracked alongside the gap budgets.
	for t := 0; t < nt; t++ {
		agg.Threads[t].FastForwarded = ffTotals[t]
		sum.FastForwarded += ffTotals[t]
	}
	sum.MeasuredCycles = agg.Cycles
	sum.DetailedCycles = detailed
	sum.OverheadCycles = overhead
	if reg != nil {
		reg.Counter("sample.runs").Inc()
		reg.Counter("sample.windows").Add(int64(k))
		reg.Counter("sample.cycles.detailed").Add(int64(detailed))
		reg.Counter("sample.cycles.overhead").Add(int64(overhead))
		reg.Counter("sample.uops.fastforwarded").Add(int64(sum.FastForwarded))
		if sum.Throughput > 0 {
			// Relative CI half-width in parts-per-million: a dimensionless
			// integer, so merged histograms stay exact.
			reg.Histogram("sample.ci.rel.ppm", obs.PPMBounds).
				Observe(int64(sum.ThroughputCI / sum.Throughput * 1e6))
		}
	}
	return sum, agg, nil
}
