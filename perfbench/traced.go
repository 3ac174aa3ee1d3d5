package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcra/internal/cache"
	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/core"
	"dcra/internal/cpu"
	"dcra/internal/experiments"
	"dcra/internal/metrics"
	"dcra/internal/obs"
	"dcra/internal/policy"
	"dcra/internal/sample"
	"dcra/internal/sched"
	"dcra/internal/sim"
	"dcra/internal/stats"
	"dcra/internal/workload"
)

// spanPID is the trace lane group of the benchmark's own spans, clear of the
// program's (coordinator 0-1, sampling 2, scheduler 3, engine 4).
const spanPID = 7

// storeLane carries the spans the benchmark records outside any worker:
// store reads and writes after a pass, and the render.
const storeLane = 20

// spans records nested spans per lane into an obs.Tracer and keeps, per span
// name, the count, total time, self time (time no child span covers) and
// every duration. A nil *spans records nothing.
type spans struct {
	mu     sync.Mutex
	tr     *obs.Tracer
	stacks map[int][]*openSpan
	byName map[string]*spanStats
}

type openSpan struct {
	start time.Time
	child time.Duration
}

type spanStats struct {
	total, self time.Duration
	ms          []float64
}

func newSpans(tr *obs.Tracer) *spans {
	tr.Process(spanPID, "perfbench: calls into each layer")
	return &spans{tr: tr, stacks: map[int][]*openSpan{}, byName: map[string]*spanStats{}}
}

// begin opens a span on lane and returns the function that closes it. Spans
// on one lane must nest.
func (s *spans) begin(lane int, name string) func() {
	if s == nil {
		return func() {}
	}
	o := &openSpan{start: time.Now()}
	s.mu.Lock()
	s.stacks[lane] = append(s.stacks[lane], o)
	s.mu.Unlock()
	return func() {
		d := time.Since(o.start)
		s.mu.Lock()
		st := s.stacks[lane][:len(s.stacks[lane])-1]
		s.stacks[lane] = st
		if len(st) > 0 {
			st[len(st)-1].child += d
		}
		a := s.byName[name]
		if a == nil {
			a = &spanStats{}
			s.byName[name] = a
		}
		a.total += d
		a.self += d - o.child
		a.ms = append(a.ms, float64(d)/float64(time.Millisecond))
		s.mu.Unlock()
		s.tr.CompleteAt(spanPID, lane, name, "perfbench", s.tr.Since(o.start), float64(d)/float64(time.Microsecond))
	}
}

// get returns the statistics of one span name (zero when never recorded).
func (s *spans) get(name string) spanStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a := s.byName[name]; a != nil {
		return *a
	}
	return spanStats{}
}

// tracing is the state of a traced pass: the registry the layers' counters
// go to, the span recorder, and the in-situ counts the spans' calls saw.
type tracing struct {
	reg   *obs.Registry
	tr    *obs.Tracer
	spans *spans

	mu         sync.Mutex
	cycles     uint64 // cycles advanced by Machine.Run
	dcraCycles uint64 // of which under DCRA
	measured   uint64 // measured-window cycles of exact cells
	fetched    uint64 // uops fetched in those windows
	accesses   [4]uint64
	ffUops     uint64
	schedJobs  int
	baselineMs []float64
	cellBytes  []int64
	calls      *calls // the campaign's timing wrappers; nil off campaign
}

func newTracing() *tracing {
	tr := obs.NewTracer()
	return &tracing{reg: obs.NewRegistry(), tr: tr, spans: newSpans(tr)}
}

// runner builds a traced runner for one lane on the given protocol.
func (t *tracing) runner(p campaign.Params, lane int) *tracedRunner {
	r := sim.NewRunner()
	r.Warmup, r.Measure, r.Seed = p.Warmup, p.Measure, p.Seed
	r.Obs = t.reg
	r.Pool.SetObs(t.reg)
	return &tracedRunner{r: r, t: t, lane: lane, seen: map[string]bool{}}
}

// tracedRunner computes a cell through the public entry points the
// program's own runner calls — MachinePool.Get, Machine.Run and Stats for an
// exact cell, sample.RunObserved for a sampled cell, sched.Run for a
// scheduler trial, Runner.SingleIPC for baselines — with a span around each
// call. It assembles the result exactly as sim.Runner and experiments.Suite
// do, which the traced run checks byte for byte.
type tracedRunner struct {
	r    *sim.Runner
	t    *tracing
	lane int
	seen map[string]bool // baselines this runner has computed
}

func (x *tracedRunner) span(name string) func() { return x.t.spans.begin(x.lane, name) }

func (x *tracedRunner) RunCell(c campaign.Cell) (sim.Result, error) {
	defer x.span("cell")()
	switch {
	case isSchedTrial(c):
		return x.sched(c)
	case c.Mode == campaign.ModeSampled:
		return x.sampled(c)
	default:
		return x.exact(c)
	}
}

func (x *tracedRunner) machine(c campaign.Cell) (workload.Workload, cpu.Policy, *cpu.Machine, error) {
	w, err := workload.ByID(c.WID)
	if err != nil {
		return w, nil, nil, err
	}
	pol, err := newPolicy(c.Pol, c.Cfg)
	if err != nil {
		return w, nil, nil, err
	}
	end := x.span("sim.pool_get")
	m, err := x.r.Pool.Get(c.Cfg, w.Profiles(), pol, x.r.Seed)
	end()
	return w, pol, m, err
}

func (x *tracedRunner) run(m *cpu.Machine, n uint64, pol cpu.Policy) {
	before := accessCounts(m.Hierarchy())
	end := x.span("cpu.run")
	m.Run(n)
	end()
	after := accessCounts(m.Hierarchy())
	x.t.mu.Lock()
	x.t.cycles += n
	if pol.Name() == "DCRA" {
		x.t.dcraCycles += n
	}
	for i := range after {
		x.t.accesses[i] += after[i] - before[i]
	}
	x.t.mu.Unlock()
}

// accessCounts reads a hierarchy's L1I, L1D, L2 and TLB access counters.
func accessCounts(h *cache.Hierarchy) [4]uint64 {
	return [4]uint64{h.L1I.Accesses, h.L1D.Accesses, h.L2.Accesses, h.TLB.Accesses}
}

func (x *tracedRunner) exact(c campaign.Cell) (sim.Result, error) {
	w, pol, m, err := x.machine(c)
	if err != nil {
		return sim.Result{}, err
	}
	x.run(m, x.r.Warmup, pol)
	m.ResetStats()
	x.run(m, x.r.Measure, pol)
	st := m.Stats()
	x.r.Pool.Put(m)
	x.t.mu.Lock()
	x.t.measured += st.Cycles
	for _, ts := range st.Threads {
		x.t.fetched += ts.Fetched
	}
	x.t.mu.Unlock()
	ipcs := make([]float64, len(w.Names))
	for i := range w.Names {
		ipcs[i] = st.Threads[i].IPC(st.Cycles)
	}
	return x.result(c, w, pol, st, ipcs, false)
}

func (x *tracedRunner) sampled(c campaign.Cell) (sim.Result, error) {
	w, pol, m, err := x.machine(c)
	if err != nil {
		return sim.Result{}, err
	}
	end := x.span("sample.run")
	sum, agg, err := sample.RunObserved(m, x.r.SamplePlan(c.Cfg), x.r.Obs, nil)
	end()
	x.r.Pool.Put(m)
	if err != nil {
		return sim.Result{}, err
	}
	x.t.mu.Lock()
	x.t.ffUops += sum.FastForwarded
	x.t.mu.Unlock()
	res, err := x.result(c, w, pol, agg, sum.IPC, true)
	res.Sampled = sum
	res.Throughput = sum.Throughput
	return res, err
}

// result fills in the metrics sim.Runner derives from per-thread IPCs and
// single-thread baselines.
func (x *tracedRunner) result(c campaign.Cell, w workload.Workload, pol cpu.Policy, st *stats.Stats, ipcs []float64, sampled bool) (sim.Result, error) {
	single := make([]float64, len(w.Names))
	for i, name := range w.Names {
		v, err := x.baseline(c.Cfg, name, sampled)
		if err != nil {
			return sim.Result{}, err
		}
		single[i] = v
	}
	return sim.Result{
		Workload: w, Policy: pol.Name(), Stats: st,
		IPCs:       ipcs,
		Throughput: metrics.Throughput(ipcs),
		Hmean:      metrics.Hmean(ipcs, single),
		WSpeedup:   metrics.WeightedSpeedup(ipcs, single),
	}, nil
}

// baseline returns a single-thread baseline, timing the calls that compute
// one (the runner memoises the rest).
func (x *tracedRunner) baseline(cfg config.Config, name string, sampled bool) (float64, error) {
	key := strconv.FormatBool(sampled) + "/" + name
	computes := !x.seen[key]
	x.seen[key] = true
	t0 := time.Now()
	end := x.span("sim.baseline")
	var v float64
	var err error
	if sampled {
		v, err = x.r.SingleIPCSampled(cfg, name)
	} else {
		v, err = x.r.SingleIPC(cfg, name)
	}
	end()
	if computes {
		x.t.mu.Lock()
		x.t.baselineMs = append(x.t.baselineMs, float64(time.Since(t0))/float64(time.Millisecond))
		x.t.mu.Unlock()
	}
	return v, err
}

func (x *tracedRunner) sched(c campaign.Cell) (sim.Result, error) {
	shape, ok := schedShapes()[c.WID]
	pickerName, alloc, okPol := strings.Cut(c.Pol, "+")
	if !ok || !okPol {
		return sim.Result{}, fmt.Errorf("unknown scheduler cell %s", c)
	}
	picker, err := sched.PickerByName(pickerName)
	if err != nil {
		return sim.Result{}, err
	}
	if _, err := newPolicy(alloc, c.Cfg); err != nil {
		return sim.Result{}, err
	}
	end := x.span("sched.run")
	trial, err := sched.Run(sched.Config{
		Machine:   c.Cfg,
		Contexts:  shape.contexts,
		Alloc:     func() cpu.Policy { p, _ := newPolicy(alloc, c.Cfg); return p },
		Picker:    picker,
		Arrivals:  shape.arrivals,
		Benches:   experiments.SchedServiceMix,
		Budget:    shape.budget,
		Seed:      x.r.Seed,
		MaxCycles: x.r.Warmup + 20*x.r.Measure,
		Pool:      x.r.Pool,
		Obs:       x.r.Obs,
	})
	end()
	if err != nil {
		return sim.Result{}, err
	}
	x.t.mu.Lock()
	x.t.schedJobs += trial.Completed
	x.t.mu.Unlock()
	return trial.Result(), nil
}

// newPolicy builds the policies the exact and scheduler cells name.
func newPolicy(name string, cfg config.Config) (cpu.Policy, error) {
	switch name {
	case "ICOUNT":
		return policy.NewICount(), nil
	case "DG":
		return policy.NewDG(), nil
	case "FLUSH++":
		return policy.NewFlushPP(), nil
	case "DCRA":
		return core.New(core.OptionsForLatency(cfg.MemLatency)), nil
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

// schedShape is one scheduler trial's shape: its cell WID encodes contexts,
// arrivals and budget ("sched:c4:open:g3000:j16:b24000").
type schedShape struct {
	contexts int
	arrivals sched.Arrivals
	budget   uint64
}

// schedShapes maps each scheduler cell WID to its shape. The sweep
// enumerates arrival points outermost, then pickers, then allocations.
var schedShapes = sync.OnceValue(func() map[string]schedShape {
	shapes := map[string]schedShape{}
	cells := experiments.SchedSweep().Cells
	per := len(experiments.SchedPickers) * len(experiments.SchedAllocs)
	for i, c := range cells {
		f := strings.Split(c.WID, ":")
		ctx, err1 := strconv.Atoi(strings.TrimPrefix(f[1], "c"))
		budget, err2 := strconv.ParseUint(strings.TrimPrefix(f[len(f)-1], "b"), 10, 64)
		if err1 != nil || err2 != nil || i/per >= len(experiments.SchedArrivalPoints()) {
			continue
		}
		shapes[c.WID] = schedShape{contexts: ctx, arrivals: experiments.SchedArrivalPoints()[i/per], budget: budget}
	}
	return shapes
})

// localPass is the traced counterpart of exactPass and sampledPass: the same
// cells through the traced runner on an instrumented one-worker engine, each
// result written to a scratch store and read back, and the tables rendered
// from that store.
func (t *tracing) localPass(e *env, cells []campaign.Cell, mode string, renders ...func(*experiments.Suite, *pass) error) (*pass, error) {
	dir, err := e.tempDir("scratch")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := campaign.Open(dir, e.params())
	if err != nil {
		return nil, err
	}
	st.SetObs(t.reg)
	x := t.runner(e.params(), 0)
	eng := sim.NewEngine(1)
	eng.Reg, eng.Tracer = t.reg, t.tr
	results := make([]sim.Result, len(cells))
	p := newPass()
	p.begin()
	i := 0
	err = p.runBatch(cells, func(c campaign.Cell) error {
		var err error
		eng.RunLabeled(1, func(int) string { return c.Key() }, func(int) {
			if results[i], err = x.RunCell(c); err == nil {
				err = t.put(st, c, results[i])
			}
		})
		i++
		return err
	})
	if err == nil {
		for _, c := range cells {
			if err = t.get(st, c); err != nil {
				break
			}
		}
	}
	if err == nil {
		s := e.suite(mode)
		s.Store, s.RequireStore = st, true
		end := t.spans.begin(storeLane, "experiments.render")
		for _, render := range renders {
			if err = render(s, p); err != nil {
				break
			}
		}
		end()
	}
	p.end()
	if err != nil {
		return p, err
	}
	return p, digestResults(p, cells, results)
}

// digestResults records the traced pass's per-cell digests the way collect
// records the untraced pass's.
func digestResults(p *pass, cells []campaign.Cell, results []sim.Result) error {
	var fig, rest resultSet
	for i, c := range cells {
		rs := &fig
		if isSchedTrial(c) {
			rs = &rest
		}
		if err := rs.add(results[i]); err != nil {
			return err
		}
	}
	p.digests["cells"], p.cells = fig.digest(), fig.cells
	if len(rest.cells) > 0 {
		p.digests["schedcells"] = rest.digest()
	}
	return nil
}

func (t *tracing) put(st *campaign.Store, c campaign.Cell, r sim.Result) error {
	defer t.spans.begin(storeLane, "campaign.put")()
	return st.Put(c, r)
}

func (t *tracing) get(st *campaign.Store, c campaign.Cell) error {
	end := t.spans.begin(storeLane, "campaign.get")
	_, ok, err := st.Get(c)
	end()
	t.mu.Lock()
	if info, serr := os.Stat(filepath.Join(st.Dir(), "cells", c.Key()+".json")); serr == nil {
		t.cellBytes = append(t.cellBytes, info.Size())
	}
	t.mu.Unlock()
	if err == nil && !ok {
		err = fmt.Errorf("cell %s missing from store", c)
	}
	return err
}

// storeRows reads every cell of a finished campaign back from its store and
// writes each result into a scratch store, timing both.
func (t *tracing) storeRows(e *env, r *rig) error {
	dir, err := e.tempDir("scratch")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	scratch, err := campaign.Open(dir, r.store.Params())
	if err != nil {
		return err
	}
	scratch.SetObs(t.reg)
	for _, c := range r.sweep.Cells {
		if err := t.get(r.store, c); err != nil {
			return err
		}
		res, _, err := r.store.Get(c)
		if err != nil {
			return err
		}
		if err := t.put(scratch, c, res); err != nil {
			return err
		}
	}
	return nil
}

// layerMetrics assembles the per-layer metrics of a traced run from its
// untraced and traced passes, the campaign's call record, the CPU profile's
// per-package shares, the micro rows and the parity of the run's seed.
func (t *tracing) layerMetrics(untraced, traced *pass, prof map[string]float64, mr microRows, par parity) map[string]metric {
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	sp := t.spans
	c := func(name string) float64 { return float64(t.reg.Counter(name).Value()) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	run := sp.get("cpu.run")
	nsPerCycle := ratio(float64(run.total), float64(t.cycles))
	set("cpu.cycles", "count", float64(t.cycles))
	set("cpu.ns_per_cycle", "ns", nsPerCycle)
	set("cpu.ff_uops", "count", float64(t.ffUops))
	set("cpu.ff_ns_per_uop", "ns", mr.ffNsPerUop)
	l1 := float64(t.accesses[0] + t.accesses[1])
	explained := mr.accessNs*ratio(l1, float64(t.cycles)) +
		mr.genNsPerUop*ratio(float64(t.fetched), float64(t.measured)) +
		mr.tickNs*ratio(float64(t.dcraCycles), float64(t.cycles))
	unexplained := 0.0
	if nsPerCycle > 0 {
		unexplained = 1 - explained/nsPerCycle
	}
	set("cpu.unexplained_frac", "ratio", unexplained)
	var all uint64
	for _, a := range t.accesses {
		all += a
	}
	set("cache.accesses_per_cycle", "1/cycle", ratio(float64(all), float64(t.cycles)))
	set("cache.access_ns", "ns", mr.accessNs)
	set("trace.uops", "count", float64(t.fetched))
	set("trace.gen_ns_per_uop", "ns", mr.genNsPerUop)
	set("trace.skim_ns_per_uop", "ns", mr.skimNsPerUop)
	set("rng.geom_ns", "ns", mr.geomNs)
	set("core.tick_ns", "ns", mr.tickNs)
	for _, pkg := range []string{"cpu", "cache", "trace", "rng", "core", "policy", "branch", "sched"} {
		set(pkg+".self_frac", "ratio", prof[pkg])
	}

	hits, misses := c("pool.machine.hits"), c("pool.machine.misses")
	set("sim.pool_get_us", "us", 1000*mean(sp.get("sim.pool_get").ms))
	set("sim.pool_hit_frac", "ratio", ratio(hits, hits+misses))
	engineUs := float64(t.reg.Histogram("engine.cell.us", obs.DurationBounds).Sum())
	set("sim.engine_busy_frac", "ratio", ratio(engineUs, float64(traced.wall/time.Microsecond)))
	set("sim.baseline_runs", "count", float64(len(t.baselineMs)))
	set("sim.baseline_ms", "ms", mean(t.baselineMs))

	runs := c("sample.runs")
	detailed, overhead := c("sample.cycles.detailed"), c("sample.cycles.overhead")
	set("sample.windows_per_run", "count", ratio(c("sample.windows"), runs))
	set("sample.detailed_frac", "ratio", ratio(detailed+overhead, runs*(warmupCycles+measureCycles)))
	set("sample.overhead_frac", "ratio", ratio(overhead, detailed+overhead))
	sr := sp.get("sample.run").ms
	set("sample.run_ms_p50", "ms", percentile(sr, 50))
	set("sample.run_ms_p90", "ms", percentile(sr, 90))
	set("sample.parity_within_ci_frac", "ratio", par.withinFrac)
	set("sample.parity_mean_abs_err", "IPC", par.meanAbsErr)

	trials := sp.get("sched.run")
	set("sched.trial_ms_p50", "ms", percentile(trials.ms, 50))
	set("sched.jobs_per_s", "1/s", ratio(float64(t.schedJobs), trials.total.Seconds()))
	set("experiments.render_ms", "ms", ms(sp.get("experiments.render").total))
	set("experiments.paper_err_pp", "pp", paperErr(untraced.gains))

	puts, gets := sp.get("campaign.put").ms, sp.get("campaign.get").ms
	set("campaign.put_us_p50", "us", 1000*percentile(puts, 50))
	set("campaign.put_us_p90", "us", 1000*percentile(puts, 90))
	set("campaign.get_us_p50", "us", 1000*percentile(gets, 50))
	set("campaign.get_us_p90", "us", 1000*percentile(gets, 90))
	var bytes []float64
	for _, b := range t.cellBytes {
		bytes = append(bytes, float64(b)/1000)
	}
	set("campaign.cell_kb", "KB", mean(bytes))
	set("campaign.quarantines", "count", c("store.quarantines"))

	var lease, complete []float64
	busy := 0.0
	if rec := t.calls; rec != nil {
		rec.mu.Lock()
		lease, complete = rec.durMs["lease"], rec.durMs["complete"]
		busy = ratio(float64(rec.busy), float64(campaignWorkers)*float64(traced.wall))
		rec.mu.Unlock()
	}
	set("coord.lease_ms_p50", "ms", percentile(lease, 50))
	set("coord.complete_ms_p50", "ms", percentile(complete, 50))
	set("coord.complete_ms_p90", "ms", percentile(complete, 90))
	set("coord.heartbeats", "count", c("coord.heartbeats"))
	set("coord.leases", "count", c("coord.leases.granted"))
	set("coord.releases", "count", c("coord.leases.expired")+c("coord.leases.failed"))
	set("coord.duplicates", "count", c("coord.cells.duplicate"))
	set("coord.worker_busy_frac", "ratio", busy)

	cells := sp.get("cell")
	set("runtime.gc_frac", "ratio", untraced.gcFrac)
	set("runtime.alloc_mb", "MB", float64(untraced.allocB)/1e6)
	set("runtime.max_rss_mb", "MB", untraced.rssMB)
	set("trace_overhead_frac", "ratio", ratio(float64(traced.wall), float64(untraced.wall))-1)
	set("residual_frac", "ratio", ratio(float64(cells.self), float64(cells.total)))
	return m
}
