package sample

import (
	"math"
	"reflect"
	"testing"

	"dcra/internal/config"
	"dcra/internal/cpu"
	"dcra/internal/policy"
	"dcra/internal/trace"
)

func testMachine(t *testing.T) *cpu.Machine {
	t.Helper()
	m, err := cpu.New(config.Baseline(), []trace.Profile{
		trace.MustProfile("gzip"), trace.MustProfile("mcf"),
		trace.MustProfile("eon"), trace.MustProfile("art"),
	}, policy.NewICount(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestParamsValidate is the schedule rule set's table test: every case
// gets the same verdict from Params.Validate (what RunObserved applies) and
// from config.Config.Validate with the schedule stamped on.
func TestParamsValidate(t *testing.T) {
	good := DeriveAdaptive(15_000, 60_000)
	with := func(edit func(*Params)) Params {
		p := good
		edit(&p)
		return p
	}
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"derived", good, true},
		{"contiguous windows", with(func(p *Params) { p.FFCycles, p.SkipCycles = 0, 0 }), true},
		{"floor equals cap", with(func(p *Params) { p.MinWindows = p.Windows }), true},
		{"zero schedule", Params{}, false},
		{"no measure window", with(func(p *Params) { p.Measure = 0 }), false},
		{"no windows", with(func(p *Params) { p.Windows = 0 }), false},
		{"negative windows", with(func(p *Params) { p.Windows = -1 }), false},
		{"no window floor", with(func(p *Params) { p.MinWindows = 0 }), false},
		{"floor above cap", with(func(p *Params) { p.MinWindows = p.Windows + 1 }), false},
		{"no stopping target", with(func(p *Params) { p.TargetRelCIPpm = 0 }), false},
		{"negative stopping target", with(func(p *Params) { p.TargetRelCIPpm = -1 }), false},
		{"target without floor", with(func(p *Params) { p.MinWindows = 0; p.TargetRelCIPpm = 1 }), false},
		{"no warm tail", with(func(p *Params) { p.WarmTail = 0 }), false},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Params.Validate(%+v) = %v, want ok=%v", tc.name, tc.p, err, tc.ok)
		}
		cfg := config.Baseline()
		cfg.Sampling = tc.p.Config()
		// A config without a schedule is an exact one, so only configured
		// schedules go through the sampling rules there.
		if err := cfg.Validate(); cfg.Sampling.Enabled() && (err == nil) != tc.ok {
			t.Errorf("%s: config.Validate with schedule = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if _, _, err := RunObserved(testMachine(t), Params{}, nil, nil); err == nil {
		t.Error("RunObserved ran a zero schedule")
	}
}

// TestDeriveSpansExactProtocol checks the derived schedule skips the exact
// warmup and that a run stopping at the window floor covers the measured
// interval: its last window ends at most one gap rounding short of
// warmup+measure, at a fraction of the detailed cost.
func TestDeriveSpansExactProtocol(t *testing.T) {
	for _, proto := range [][2]uint64{{15_000, 60_000}, {50_000, 300_000}, {5_000, 20_000}} {
		warmup, measure := proto[0], proto[1]
		p := DeriveAdaptive(warmup, measure)
		if err := p.Validate(); err != nil {
			t.Fatalf("DeriveAdaptive(%d, %d) invalid: %v", warmup, measure, err)
		}
		if p.SkipCycles != warmup {
			t.Errorf("DeriveAdaptive(%d, %d): SkipCycles = %d, want the exact warmup", warmup, measure, p.SkipCycles)
		}
		if p.MinWindows >= p.Windows {
			t.Errorf("DeriveAdaptive(%d, %d): no room above the window floor: %+v", warmup, measure, p)
		}
		k := uint64(p.MinWindows)
		detailed := k * (p.Warmup + p.Measure)
		span := p.SkipCycles + detailed + (k-1)*p.FFCycles
		if total := warmup + measure; span > total || total-span >= k {
			t.Errorf("DeriveAdaptive(%d, %d): floor run spans %d cycles, want within %d of %d",
				warmup, measure, span, k, total)
		}
		if detailed >= measure/2 {
			t.Errorf("DeriveAdaptive(%d, %d): floor detailed cost %d is no saving over measure %d",
				warmup, measure, detailed, measure)
		}
	}
}

// TestRunDeterminism runs the same schedule on two identically-seeded
// machines and requires bit-identical summaries, window values included.
func TestRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	p := DeriveAdaptive(5_000, 20_000)
	a, aggA, err := RunObserved(testMachine(t), p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, aggB, err := RunObserved(testMachine(t), p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed summaries differ:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(aggA, aggB) {
		t.Fatalf("same-seed aggregate stats differ")
	}
}

// TestAdaptiveStopping drives both edges of the sequential stopping rule.
// The retained window count must be a pure function of observed variance
// versus the target: a target tighter than any real cell's window variance
// can satisfy is the forced-high-variance case — every stopping check sees a
// relative CI far above target — and must run to the hard cap rather than
// extend forever; a target wider than the floor-count CI stops the run at
// MinWindows. Both runs use the same seed, so the divergence is purely the
// stopping rule's.
func TestAdaptiveStopping(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	base := DeriveAdaptive(5_000, 20_000)
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}

	capped := base
	capped.TargetRelCIPpm = 1 // 0.0001% of mean: unreachably tight
	capSum, _, err := RunObserved(testMachine(t), capped, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(capSum.WindowThroughput); got != capped.Windows {
		t.Errorf("unreachable target retained %d windows, want the cap %d", got, capped.Windows)
	}

	floor := base
	floor.TargetRelCIPpm = 100_000_000 // 10000% of mean: met at the first check
	floorSum, _, err := RunObserved(testMachine(t), floor, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(floorSum.WindowThroughput); got != floor.MinWindows {
		t.Errorf("trivial target retained %d windows, want the floor %d", got, floor.MinWindows)
	}
	if floorSum.DetailedCycles >= capSum.DetailedCycles {
		t.Errorf("floor stop spent %d detailed cycles, cap run %d — stopping saved nothing",
			floorSum.DetailedCycles, capSum.DetailedCycles)
	}
	// Early stop skips the trailing gap: the floor run's windows must agree
	// bit-for-bit with the cap run's first MinWindows values (the schedule
	// prefix is identical; only the decision to continue differs).
	for i, w := range floorSum.WindowThroughput {
		if w != capSum.WindowThroughput[i] {
			t.Errorf("window %d: floor run %v != cap run %v", i, w, capSum.WindowThroughput[i])
		}
	}
}

// TestSummaryInvariants checks the summary's internal consistency: the mean
// is the mean of the retained windows, intervals scale from the standard
// error, and the aggregate counts match the schedule.
func TestSummaryInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	p := DeriveAdaptive(5_000, 20_000)
	sum, agg, err := RunObserved(testMachine(t), p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := len(sum.WindowThroughput)
	if k < p.MinWindows || k > p.Windows {
		t.Fatalf("retained %d windows, want within [%d, %d]", k, p.MinWindows, p.Windows)
	}
	var mean float64
	for _, w := range sum.WindowThroughput {
		mean += w
	}
	mean /= float64(k)
	if sum.Throughput != mean {
		t.Errorf("Throughput %v != mean of windows %v", sum.Throughput, mean)
	}
	tq := tQuantile9985(k - 1)
	if got, want := sum.ThroughputCI, tq*sum.ThroughputStdErr; math.Abs(got-want) > 1e-12 {
		t.Errorf("ThroughputCI %v != t-quantile x stderr %v", got, want)
	}
	if sum.MeasuredCycles != uint64(k)*p.Measure {
		t.Errorf("MeasuredCycles %d, want %d", sum.MeasuredCycles, uint64(k)*p.Measure)
	}
	if agg.Cycles != sum.MeasuredCycles {
		t.Errorf("aggregate cycles %d != summary MeasuredCycles %d", agg.Cycles, sum.MeasuredCycles)
	}
	if sum.FastForwarded == 0 {
		t.Error("schedule with gaps fast-forwarded no uops")
	}
	var ff uint64
	for _, ts := range agg.Threads {
		ff += ts.FastForwarded
	}
	if ff != sum.FastForwarded {
		t.Errorf("per-thread FastForwarded sums to %d, summary says %d", ff, sum.FastForwarded)
	}
}
