// Package sim orchestrates simulations: it runs multiprogrammed workloads
// under a given policy with warmup, collects metrics, and maintains the
// single-thread ICOUNT baselines the Hmean metric needs. It defines no
// policy of its own: callers pass a cpu.Policy built by internal/policy (or
// internal/core), one fresh instance per run.
package sim

import (
	"fmt"
	"slices"
	"sync/atomic"

	"dcra/internal/config"
	"dcra/internal/cpu"
	"dcra/internal/metrics"
	"dcra/internal/obs"
	"dcra/internal/policy"
	"dcra/internal/sample"
	"dcra/internal/singleflight"
	"dcra/internal/stats"
	"dcra/internal/trace"
	"dcra/internal/workload"
)

// Result summarises one simulation run.
type Result struct {
	Workload workload.Workload
	Policy   string
	Stats    *stats.Stats

	IPCs       []float64 // per-thread IPC
	Throughput float64   // sum of IPCs
	Hmean      float64   // harmonic mean of relative IPCs (0 if baselines missing)
	WSpeedup   float64

	// Sched carries open-system scheduler metrics when the cell is a
	// job-stream trial (internal/sched) rather than a fixed-window run.
	Sched *SchedSummary `json:"Sched,omitempty"`

	// Sampled carries the SMARTS-style sampling summary (window means,
	// standard errors, confidence intervals) when the run used the sampled
	// execution mode; nil for exact runs. For sampled runs, IPCs/Throughput
	// are the window means and Stats aggregates the measured windows only.
	Sampled *sample.Summary `json:"Sampled,omitempty"`
}

// SchedSummary is the open-system slice of a Result: the per-trial metrics
// of one job-stream scheduling run. It lives here (not in internal/sched) so
// the campaign store can persist trials without the sim package importing
// the scheduler that drives it.
type SchedSummary struct {
	Contexts  int    `json:"contexts"`  // hardware contexts served
	Jobs      int    `json:"jobs"`      // jobs offered by the arrival process
	Completed int    `json:"completed"` // jobs run to their full budget
	Cycles    uint64 `json:"cycles"`    // trial length in cycles

	JobsPerMCycle float64 `json:"jobs_per_mcycle"` // completed jobs per 10^6 cycles
	UopsPerCycle  float64 `json:"uops_per_cycle"`  // aggregate committed IPC over the trial

	P50Turnaround  float64 `json:"p50_turnaround_cycles"`
	P99Turnaround  float64 `json:"p99_turnaround_cycles"`
	MeanTurnaround float64 `json:"mean_turnaround_cycles"`

	// Jain is Jain's fairness index over completed jobs' progress rates
	// (budget / turnaround): 1.0 means every job progressed equally fast.
	Jain float64 `json:"jain_fairness"`

	// EventLogSHA digests the trial's job event log; same-seed trials must
	// reproduce it byte-identically (the determinism tests assert this).
	EventLogSHA string `json:"event_log_sha"`
}

// baselineKey identifies one single-thread baseline run. config.Config is a
// struct of scalars, so the key is comparable and map lookups cost no
// formatting (the previous string key went through fmt.Sprintf("%+v", cfg)
// on every probe).
type baselineKey struct {
	cfg  config.Config
	name string
}

// Runner executes simulations with fixed warmup/measurement windows and a
// fixed seed, and caches single-thread baselines per configuration. The
// baseline cache is safe for concurrent use: parallel experiment workers
// needing the same baseline compute it exactly once (single-flight) and all
// observe the identical value.
//
// RunWorkload and SingleIPC run the protocol their config names: the exact
// warmup+measure window when cfg.Sampling is off, the SMARTS schedule it
// carries otherwise (see measure).
//
// The window/seed fields must not be mutated while runs are in flight: every
// run snapshots them at start and re-checks at completion, panicking on a
// mid-flight change instead of silently mixing results measured under
// different protocols.
//
// Pool, when set (NewRunner sets it), recycles machine allocations across
// runs: RunMachine draws from the pool and RunWorkload/SingleIPC return
// machines to it once their results are extracted. Reuse is observationally
// invisible — a pooled machine is Reinit-ed to bit-identical
// post-construction state (TestPooledRunsBitIdentical).
type Runner struct {
	Warmup  uint64 // cycles simulated before statistics reset
	Measure uint64 // measured cycles
	Seed    uint64

	Pool *MachinePool // optional machine reuse; nil builds fresh machines

	// Obs, when set, receives runner-level telemetry (sampled-mode
	// window counts and CI widths). Set it before runs start; like the
	// window fields it must not change while runs are in flight.
	Obs *obs.Registry

	baseline singleflight.Memo[baselineKey, float64]
	inFlight atomic.Int64
}

// NewRunner returns a Runner with the default windows used throughout the
// experiments (50k warmup + 300k measured cycles) and a machine pool.
func NewRunner() *Runner {
	return &Runner{Warmup: 50_000, Measure: 300_000, Seed: 0x5eed_dc2a, Pool: NewMachinePool()}
}

// protocol is the Runner field snapshot the in-flight guard compares.
type protocol struct{ warmup, measure, seed uint64 }

// beginRun snapshots the measurement protocol for one run.
func (r *Runner) beginRun() protocol {
	r.inFlight.Add(1)
	return protocol{r.Warmup, r.Measure, r.Seed}
}

// endRun verifies the protocol did not change while the run was in flight.
// The comparison happens before the in-flight count drops: a mutator
// legally waiting for InFlight() == 0 must not race the read of the fields.
func (r *Runner) endRun(snap protocol) {
	mutated := (protocol{r.Warmup, r.Measure, r.Seed}) != snap
	r.inFlight.Add(-1)
	if mutated {
		panic("sim: Runner windows/seed mutated while a run was in flight")
	}
}

// InFlight returns the number of runs currently executing; mutating the
// window/seed fields is only legal when it is zero.
func (r *Runner) InFlight() int64 { return r.inFlight.Load() }

// RunMachine builds (or draws from the pool) a machine for (cfg, profiles,
// policy) and runs the exact warmup+measure protocol, returning the machine
// for inspection. Callers that extract what they need should hand the
// machine back via Recycle; keeping it (or dropping it) is also safe.
func (r *Runner) RunMachine(cfg config.Config, profiles []trace.Profile, pol cpu.Policy) (*cpu.Machine, error) {
	snap := r.beginRun()
	defer r.endRun(snap)
	m, err := r.Pool.Get(cfg, profiles, pol, r.Seed)
	if err != nil {
		return nil, err
	}
	m.Run(r.Warmup)
	m.ResetStats()
	m.Run(r.Measure)
	return m, nil
}

// Recycle returns a machine obtained from RunMachine to the runner's pool.
// Results already extracted (Stats, IPCs) stay valid; the machine itself
// must not be touched afterwards.
func (r *Runner) Recycle(m *cpu.Machine) { r.Pool.Put(m) }

// measure runs profiles under pol with the protocol cfg names and returns
// per-thread IPCs, the statistics they came from and, for a sampled run,
// the estimator's summary. Without a sampling schedule that is RunMachine's
// exact window. With one it is the SMARTS schedule (Wunderlich et al., ISCA
// 2003): the IPCs are window means and the statistics aggregate the
// measured windows. The machine goes back to the pool either way.
func (r *Runner) measure(cfg config.Config, profiles []trace.Profile, pol cpu.Policy) ([]float64, *stats.Stats, *sample.Summary, error) {
	if !cfg.Sampling.Enabled() {
		m, err := r.RunMachine(cfg, profiles, pol)
		if err != nil {
			return nil, nil, nil, err
		}
		st := m.Stats()
		r.Recycle(m) // st stays valid: reuse abandons, never clears, old stats
		ipcs := make([]float64, len(profiles))
		for i := range ipcs {
			ipcs[i] = st.Threads[i].IPC(st.Cycles)
		}
		return ipcs, st, nil, nil
	}
	snap := r.beginRun()
	defer r.endRun(snap)
	m, err := r.Pool.Get(cfg, profiles, pol, r.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	defer r.Recycle(m)
	sum, st, err := sample.RunObserved(m, r.SamplePlan(cfg), r.Obs, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	return slices.Clone(sum.IPC), st, sum, nil
}

// RunWorkload executes one Table 4 workload under pol, with the protocol cfg
// names, and computes all metrics: Hmean and weighted speedup divide by the
// single-thread baselines SingleIPC measures on the same configuration. A
// sampled run therefore divides by *sampled* baselines: sampled mode is
// self-contained — a sampled sweep never pays for a full-length exact run,
// which would otherwise dominate its cost — and both metric axes carry the
// same estimator. Its throughput is the window mean. Exact cells remain the
// verifier for absolute numbers; the parity harness compares throughput,
// which baselines do not touch. Policies carry per-run state (flush
// episodes, miss-predictor tables): pass a fresh one per run.
func (r *Runner) RunWorkload(cfg config.Config, w workload.Workload, pol cpu.Policy) (Result, error) {
	ipcs, st, sum, err := r.measure(cfg, w.Profiles(), pol)
	if err != nil {
		return Result{}, fmt.Errorf("sim: workload %s under %s: %w", w.ID(), pol.Name(), err)
	}
	res := Result{Workload: w, Policy: pol.Name(), Stats: st, IPCs: ipcs, Sampled: sum}
	single := make([]float64, len(w.Names))
	for i := range w.Names {
		if single[i], err = r.SingleIPC(cfg, w.Names[i]); err != nil {
			return Result{}, err
		}
	}
	res.Throughput = metrics.Throughput(ipcs)
	if sum != nil {
		res.Throughput = sum.Throughput
	}
	res.Hmean = metrics.Hmean(ipcs, single)
	res.WSpeedup = metrics.WeightedSpeedup(ipcs, single)
	return res, nil
}

// SamplePlan returns the sampling schedule stamped on cfg. A config without
// one yields the zero Params, which sample.RunObserved refuses: every
// sampled run names its schedule, so its results cannot be confused with
// another schedule's.
func (r *Runner) SamplePlan(cfg config.Config) sample.Params {
	return sample.FromConfig(cfg.Sampling)
}

// SingleIPC returns the single-thread IPC of a benchmark on cfg, measured
// with the protocol cfg names, simulating it on first use and caching
// thereafter. Baselines use ICOUNT (with one thread every non-partitioning
// policy behaves identically). Concurrent callers for the same (cfg, name)
// share one simulation.
func (r *Runner) SingleIPC(cfg config.Config, name string) (float64, error) {
	// singleflight.Memo keeps waiters from blocking forever even if the run
	// panics (MustProfile panics on an unknown benchmark): the panic is
	// published as the key's error before propagating.
	return r.baseline.Do(baselineKey{cfg: cfg, name: name}, func() (float64, error) {
		ipcs, _, _, err := r.measure(cfg, []trace.Profile{trace.MustProfile(name)}, policy.NewICount())
		if err != nil {
			return 0, fmt.Errorf("sim: baseline %s: %w", name, err)
		}
		return ipcs[0], nil
	})
}

// SingleIPCSampled is SingleIPC; it remains only as the name the benchmark
// harness calls.
func (r *Runner) SingleIPCSampled(cfg config.Config, name string) (float64, error) {
	return r.SingleIPC(cfg, name)
}
