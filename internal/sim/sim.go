// Package sim orchestrates simulations: it runs multiprogrammed workloads
// under a chosen policy with warmup, collects metrics, and maintains the
// single-thread baselines the Hmean metric needs.
package sim

import (
	"fmt"
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

// PolicyFactory constructs a fresh policy instance per run (policies carry
// per-run state such as flush episodes or miss-predictor tables).
type PolicyFactory func() cpu.Policy

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

	// Probe carries the periodic machine probe's per-thread IPC and ROB
	// occupancy time-series when the runner had ProbeInterval set; nil
	// (and absent from serialized results) otherwise, so unprobed runs
	// keep their exact stored bytes.
	Probe *obs.ProbeSeries `json:"Probe,omitempty"`
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

	// ProbeInterval, when non-zero, makes RunWorkload sample the machine
	// every ProbeInterval cycles of the measured window (per-thread IPC
	// and ROB occupancy) into Result.Probe. The probed run commits a
	// bit-identical stream — the probe only reads counters.
	ProbeInterval uint64

	baseline        singleflight.Memo[baselineKey, float64]
	baselineSampled singleflight.Memo[baselineKey, float64]
	inFlight        atomic.Int64
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
// policy) and runs the warmup+measure protocol, returning the machine for
// inspection. Callers that extract what they need should hand the machine
// back via Recycle; keeping it (or dropping it) is also safe.
func (r *Runner) RunMachine(cfg config.Config, profiles []trace.Profile, pol cpu.Policy) (*cpu.Machine, error) {
	m, _, err := r.runProtocol(cfg, profiles, pol, false)
	return m, err
}

// RunMachineProbed is RunMachine with the periodic machine probe: when
// the runner's ProbeInterval is non-zero the measured window is sampled
// into the returned series (nil otherwise). The committed stream is
// bit-identical to RunMachine's.
func (r *Runner) RunMachineProbed(cfg config.Config, profiles []trace.Profile, pol cpu.Policy) (*cpu.Machine, *obs.ProbeSeries, error) {
	return r.runProtocol(cfg, profiles, pol, true)
}

func (r *Runner) runProtocol(cfg config.Config, profiles []trace.Profile, pol cpu.Policy, probe bool) (*cpu.Machine, *obs.ProbeSeries, error) {
	snap := r.beginRun()
	defer r.endRun(snap)
	m, err := r.Pool.Get(cfg, profiles, pol, r.Seed)
	if err != nil {
		return nil, nil, err
	}
	m.Run(r.Warmup)
	m.ResetStats()
	if probe && r.ProbeInterval > 0 {
		return m, ProbeRun(m, r.Measure, r.ProbeInterval), nil
	}
	m.Run(r.Measure)
	return m, nil, nil
}

// Recycle returns a machine obtained from RunMachine to the runner's pool.
// Results already extracted (Stats, IPCs) stay valid; the machine itself
// must not be touched afterwards.
func (r *Runner) Recycle(m *cpu.Machine) { r.Pool.Put(m) }

// RunWorkload executes one Table 4 workload under the policy from mk and
// computes all metrics (Hmean uses cached single-thread baselines on the
// same configuration).
func (r *Runner) RunWorkload(cfg config.Config, w workload.Workload, mk PolicyFactory) (Result, error) {
	pol := mk()
	m, probe, err := r.RunMachineProbed(cfg, w.Profiles(), pol)
	if err != nil {
		return Result{}, fmt.Errorf("sim: workload %s under %s: %w", w.ID(), pol.Name(), err)
	}
	st := m.Stats()
	r.Recycle(m) // st stays valid: reuse abandons, never clears, old stats
	res := Result{Workload: w, Policy: pol.Name(), Stats: st, Probe: probe}
	res.IPCs = make([]float64, len(w.Names))
	single := make([]float64, len(w.Names))
	for i := range w.Names {
		res.IPCs[i] = st.Threads[i].IPC(st.Cycles)
		s, err := r.SingleIPC(cfg, w.Names[i])
		if err != nil {
			return Result{}, err
		}
		single[i] = s
	}
	res.Throughput = metrics.Throughput(res.IPCs)
	res.Hmean = metrics.Hmean(res.IPCs, single)
	res.WSpeedup = metrics.WeightedSpeedup(res.IPCs, single)
	return res, nil
}

// SamplePlan returns the sampling schedule stamped on cfg. A config without
// one yields the zero Params, which sample.RunObserved refuses: every
// sampled run names its schedule, so its results cannot be confused with
// another schedule's.
func (r *Runner) SamplePlan(cfg config.Config) sample.Params {
	return sample.FromConfig(cfg.Sampling)
}

// RunMachineSampled is RunMachine's sampled-mode counterpart: it draws a
// machine and executes the SMARTS schedule instead of the single
// warmup+measure window. The returned stats aggregate the measured windows.
func (r *Runner) RunMachineSampled(cfg config.Config, profiles []trace.Profile, pol cpu.Policy) (*cpu.Machine, *sample.Summary, *stats.Stats, error) {
	snap := r.beginRun()
	defer r.endRun(snap)
	m, err := r.Pool.Get(cfg, profiles, pol, r.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	sum, agg, err := sample.RunObserved(m, r.SamplePlan(cfg), r.Obs, nil)
	if err != nil {
		r.Pool.Put(m)
		return nil, nil, nil, err
	}
	return m, sum, agg, nil
}

// RunWorkloadSampled executes one workload in sampled mode and computes the
// same metric set as RunWorkload, with per-thread IPCs and throughput taken
// from the window means. Hmean and weighted speedup divide by *sampled*
// single-thread baselines (SingleIPCSampled): sampled mode is self-contained
// — a sampled sweep never pays for a full-length exact run, which would
// otherwise dominate its cost — and both metric axes carry the same
// estimator. Exact cells remain the verifier for absolute numbers; the
// parity harness compares throughput, which baselines do not touch.
func (r *Runner) RunWorkloadSampled(cfg config.Config, w workload.Workload, mk PolicyFactory) (Result, error) {
	pol := mk()
	m, sum, agg, err := r.RunMachineSampled(cfg, w.Profiles(), pol)
	if err != nil {
		return Result{}, fmt.Errorf("sim: sampled workload %s under %s: %w", w.ID(), pol.Name(), err)
	}
	r.Recycle(m)
	res := Result{Workload: w, Policy: pol.Name(), Stats: agg, Sampled: sum}
	res.IPCs = make([]float64, len(w.Names))
	single := make([]float64, len(w.Names))
	for i := range w.Names {
		res.IPCs[i] = sum.IPC[i]
		s, err := r.SingleIPCSampled(cfg, w.Names[i])
		if err != nil {
			return Result{}, err
		}
		single[i] = s
	}
	res.Throughput = sum.Throughput
	res.Hmean = metrics.Hmean(res.IPCs, single)
	res.WSpeedup = metrics.WeightedSpeedup(res.IPCs, single)
	return res, nil
}

// SingleIPC returns the single-thread IPC of a benchmark on cfg, simulating
// it on first use and caching thereafter. Baselines use ICOUNT (with one
// thread every non-partitioning policy behaves identically). Concurrent
// callers for the same (cfg, name) share one simulation.
func (r *Runner) SingleIPC(cfg config.Config, name string) (float64, error) {
	// singleflight.Memo keeps waiters from blocking forever even if the run
	// panics (MustProfile panics on an unknown benchmark): the panic is
	// published as the key's error before propagating.
	return r.baseline.Do(baselineKey{cfg: cfg, name: name}, func() (float64, error) {
		m, err := r.RunMachine(cfg, []trace.Profile{trace.MustProfile(name)}, policy.NewICount())
		if err != nil {
			return 0, fmt.Errorf("sim: baseline %s: %w", name, err)
		}
		ipc := m.Stats().Threads[0].IPC(m.Stats().Cycles)
		r.Recycle(m)
		return ipc, nil
	})
}

// SingleIPCSampled is SingleIPC's sampled-mode counterpart: the same
// single-thread ICOUNT baseline measured with the runner's sampling schedule
// (window-mean IPC) instead of the full exact window, cached separately.
func (r *Runner) SingleIPCSampled(cfg config.Config, name string) (float64, error) {
	return r.baselineSampled.Do(baselineKey{cfg: cfg, name: name}, func() (float64, error) {
		m, sum, _, err := r.RunMachineSampled(cfg, []trace.Profile{trace.MustProfile(name)}, policy.NewICount())
		if err != nil {
			return 0, fmt.Errorf("sim: sampled baseline %s: %w", name, err)
		}
		r.Recycle(m)
		return sum.IPC[0], nil
	})
}

// CapPolicy is a utility policy for resource-restriction studies (the
// paper's Figure 2): ICOUNT fetch with fixed per-thread caps on selected
// resources, no gating.
type CapPolicy struct {
	Caps [cpu.NumResources]int // 0 = unlimited
}

// Name implements cpu.Policy.
func (*CapPolicy) Name() string { return "CAP" }

// Tick implements cpu.Policy.
func (*CapPolicy) Tick(*cpu.Machine) {}

// Rank implements cpu.Policy.
func (*CapPolicy) Rank(m *cpu.Machine, ts []int) { cpu.RankByICount(m, ts) }

// Gate implements cpu.Policy.
func (*CapPolicy) Gate(*cpu.Machine, int) bool { return false }

// Cap implements cpu.Partitioner.
func (c *CapPolicy) Cap(m *cpu.Machine, t int, r cpu.Resource) int { return c.Caps[r] }
