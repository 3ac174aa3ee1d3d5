package main

import (
	"time"

	"dcra/internal/cache"
	"dcra/internal/config"
	"dcra/internal/core"
	"dcra/internal/cpu"
	"dcra/internal/isa"
	"dcra/internal/policy"
	"dcra/internal/rng"
	"dcra/internal/sample"
	"dcra/internal/trace"
	"dcra/internal/workload"
)

// microRows times the public functions of the layers only the kernel calls,
// on inputs recorded from the exact workload's own cells. Multiplied by the
// in-situ call counts of the traced pass, they account for part of
// cpu.ns_per_cycle; fetch, dispatch, issue, commit and the event calendar
// have no public entry point and stay in the remainder.
type microRows struct {
	accessNs     float64 // Hierarchy.AccessD per call
	genNsPerUop  float64 // Stream.At + Release per uop
	skimNsPerUop float64 // Stream.SkipUops per uop
	geomNs       float64 // GeomDist.Sample per draw
	tickNs       float64 // (*core.DCRA).Tick per call on a live MEM machine
	ffNsPerUop   float64 // FastForwardBudgetsTail per uop, gap-sized budgets
}

// microReps is how often each row repeats; the row reports the median.
const microReps = 5

// microOps is the operation count of one repetition of a per-call row.
const microOps = 200_000

// timeRow runs f microReps times and returns the median ns per op.
func timeRow(ops int, f func()) float64 {
	var xs []float64
	for i := 0; i < microReps; i++ {
		t0 := time.Now()
		f()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(xs)
}

// microSink keeps the compiler from discarding timed results.
var microSink int

// measureMicro runs every micro row for one workload seed. The cache, trace
// and rng rows average one MEM and one ILP Figure 5 workload.
func measureMicro(seed uint64) (microRows, error) {
	cfg := config.Baseline()
	var access, gen, skim, geom []float64
	for _, id := range []string{"MEM2.g1", "ILP2.g1"} {
		w, err := workload.ByID(id)
		if err != nil {
			return microRows{}, err
		}
		profs := w.Profiles()
		addrs, err := recordAddresses(cfg, profs, seed)
		if err != nil {
			return microRows{}, err
		}
		h := cache.NewHierarchy(cfg)
		var now uint64
		replay := func() {
			for _, a := range addrs {
				now++
				microSink += h.AccessD(a, now).Latency
			}
		}
		replay() // fill the hierarchy before timing
		access = append(access, timeRow(len(addrs), replay))

		s := trace.NewStream(profs[0], 0, seed)
		gen = append(gen, timeRow(microOps, func() {
			base := s.Frontier()
			for i := uint64(0); i < microOps; i++ {
				microSink += int(s.At(base + i).Class)
				s.Release(base + i + 1)
			}
		}))
		skimmed := trace.NewStream(profs[0], 1, seed)
		var u isa.Uop
		skim = append(skim, timeRow(microOps, func() { skimmed.SkipUops(microOps, &u) }))

		g, src := rng.NewGeomDist(profs[0].MeanDep), rng.New(seed)
		geom = append(geom, timeRow(microOps, func() {
			for i := 0; i < microOps; i++ {
				microSink += g.Sample(src)
			}
		}))
	}
	mr := microRows{accessNs: mean(access), genNsPerUop: mean(gen), skimNsPerUop: mean(skim), geomNs: mean(geom)}

	mem4, err := workload.ByID("MEM4.g1")
	if err != nil {
		return mr, err
	}
	d := core.New(core.OptionsForLatency(cfg.MemLatency))
	m, err := cpu.New(cfg, mem4.Profiles(), d, seed)
	if err != nil {
		return mr, err
	}
	m.Run(warmupCycles)
	mr.tickNs = timeRow(microOps, func() {
		for i := 0; i < microOps; i++ {
			d.Tick(m)
		}
	})
	mr.ffNsPerUop, err = fastForwardRow(cfg, mem4.Profiles(), seed)
	return mr, err
}

// recordAddresses runs a cell's warmup with a commit observer and returns
// the effective addresses of its committed loads and stores, in order.
func recordAddresses(cfg config.Config, profs []trace.Profile, seed uint64) ([]uint64, error) {
	m, err := cpu.New(cfg, profs, policy.NewICount(), seed)
	if err != nil {
		return nil, err
	}
	var addrs []uint64
	m.SetCommitObserver(func(_ int, u *isa.Uop) {
		if isa.IsMem(u.Class) {
			addrs = append(addrs, u.Addr)
		}
	})
	m.Run(warmupCycles)
	return addrs, nil
}

// fastForwardRow times FastForwardBudgetsTail on a warmed 4-thread machine
// with the sampled workload's gap: each thread's budget is its commit rate
// times the schedule's gap cycles, and every gap follows one detailed window.
func fastForwardRow(cfg config.Config, profs []trace.Profile, seed uint64) (float64, error) {
	m, err := cpu.New(cfg, profs, core.New(core.OptionsForLatency(cfg.MemLatency)), seed)
	if err != nil {
		return 0, err
	}
	m.Run(warmupCycles)
	p := sample.DeriveAdaptive(warmupCycles, measureCycles)
	st := m.Stats()
	budgets := make([]uint64, len(profs))
	for t := range budgets {
		budgets[t] = max(1, st.Threads[t].Committed*p.FFCycles/st.Cycles)
	}
	var xs []float64
	for i := 0; i < microReps; i++ {
		m.Run(p.Warmup + p.Measure)
		var uops uint64
		for _, b := range budgets {
			uops += b
		}
		t0 := time.Now()
		m.FastForwardBudgetsTail(budgets, p.WarmTail)
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(uops))
	}
	return median(xs), nil
}
