// Package experiments regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md for the experiment index and the
// paper-vs-measured record). Each Figure*/Table* function declares its sweep
// — the campaign.Sweep enumerating every (config, workload, policy) cell it
// needs — exactly once; prefetch submission, rendering, the coordinator's
// leases and the persistent result store all iterate that same enumeration.
package experiments

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/core"
	"dcra/internal/cpu"
	"dcra/internal/metrics"
	"dcra/internal/obs"
	"dcra/internal/policy"
	"dcra/internal/sim"
	"dcra/internal/singleflight"
	"dcra/internal/trace"
	"dcra/internal/workload"
)

// PolicyName identifies one of the policies under study.
type PolicyName string

// Policies compared in the paper's evaluation.
const (
	PolICount  PolicyName = "ICOUNT"
	PolStall   PolicyName = "STALL"
	PolFlush   PolicyName = "FLUSH"
	PolFlushPP PolicyName = "FLUSH++"
	PolDG      PolicyName = "DG"
	PolPDG     PolicyName = "PDG"
	PolSRA     PolicyName = "SRA"
	PolDCRA    PolicyName = "DCRA"
)

// multithreadPolicies lists every policy newPolicy can build.
var multithreadPolicies = map[PolicyName]bool{
	PolICount: true, PolStall: true, PolFlush: true, PolFlushPP: true,
	PolDG: true, PolPDG: true, PolSRA: true, PolDCRA: true,
}

// newPolicy builds a fresh policy instance. DCRA's sharing factor follows
// the paper's latency tuning (Section 5.3), so it depends on cfg.
func newPolicy(name PolicyName, cfg config.Config) cpu.Policy {
	switch name {
	case PolICount:
		return policy.NewICount()
	case PolStall:
		return policy.NewStall()
	case PolFlush:
		return policy.NewFlush()
	case PolFlushPP:
		return policy.NewFlushPP()
	case PolDG:
		return policy.NewDG()
	case PolPDG:
		return policy.NewPDG()
	case PolSRA:
		return policy.NewSRA()
	case PolDCRA:
		return core.New(core.OptionsForLatency(cfg.MemLatency))
	}
	panic("experiments: unknown policy " + string(name))
}

// Single-thread cell vocabulary: campaign cells whose WID is "bench:<name>"
// run one benchmark alone. Pol selects the run protocol:
//
//	BASE               — ICOUNT baseline (the SingleIPC measurement)
//	CAP                — uncapped CapPolicy run (Table 3's measurement)
//	CAP:<res>:<pct>    — CapPolicy with resource <res> capped to <pct> percent
//	                     of the single-thread total (Figure 2's restriction)
const (
	benchPrefix = "bench:"
	polBase     = "BASE"
	polCap      = "CAP"
)

// benchCell builds the cell for one single-benchmark run.
func benchCell(cfg config.Config, name, pol string) campaign.Cell {
	return campaign.Cell{Cfg: cfg, WID: benchPrefix + name, Pol: pol}
}

// capPolName encodes a Figure 2 restriction as a policy string.
func capPolName(rc cpu.Resource, fraction float64) string {
	return fmt.Sprintf("%s:%s:%s", polCap, rc, strconv.FormatFloat(fraction, 'g', -1, 64))
}

// parseCapPol decodes a "CAP:<res>:<pct>" policy string.
func parseCapPol(pol string) (cpu.Resource, float64, error) {
	parts := strings.Split(pol, ":")
	if len(parts) != 3 || parts[0] != polCap {
		return 0, 0, fmt.Errorf("experiments: malformed cap policy %q", pol)
	}
	rc, err := parseResource(parts[1])
	if err != nil {
		return 0, 0, err
	}
	frac, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return 0, 0, fmt.Errorf("experiments: malformed cap fraction in %q: %w", pol, err)
	}
	return rc, frac, nil
}

// parseResource resolves a cpu.Resource display name.
func parseResource(name string) (cpu.Resource, error) {
	for r := cpu.Resource(0); r < cpu.NumResources; r++ {
		if r.String() == name {
			return r, nil
		}
	}
	return 0, fmt.Errorf("experiments: unknown resource %q", name)
}

// ErrMissingCell reports that a RequireStore suite was asked for a cell the
// store does not hold; match with errors.Is.
var ErrMissingCell = errors.New("cell not in store")

// Suite runs experiments with result memoisation: the same (workload,
// policy, configuration) run is shared between figures — Figure 5's DCRA
// runs at the baseline are also Figure 4's and Figure 6's middle points.
// The memo is safe for concurrent use; each Figure*/Table* function
// enumerates its sweep up front, submits it to the engine's worker pool,
// then renders from the completed results.
//
// With Store set, the memo is additionally layered over the persistent
// on-disk campaign store: cell lookups hit disk before simulating, and fresh
// simulations are persisted, so re-runs and figure re-renders across
// processes cost file reads instead of resimulation. The store's Params must
// match the Runner's windows and seed (campaign.Open enforces this).
type Suite struct {
	Runner *sim.Runner
	Engine *sim.Engine
	Store  *campaign.Store // optional persistent result store

	// Mode selects the execution mode cells are demanded in:
	// campaign.ModeExact (default) or campaign.ModeSampled. Sampled mode
	// applies to multiprogrammed workload cells only — "bench:" protocol
	// cells (the baselines other metrics divide by) and "sched:" trials
	// always run exact, so sampled and exact results share reference axes.
	Mode string

	// Sampling is the sampling schedule stamped onto every sampled cell's
	// config, normally sample.DeriveAdaptive(Runner.Warmup,
	// Runner.Measure).Config(). It becomes part of each cell's content key,
	// so stores never mix results from different schedules. Sampled mode
	// needs it: a sampled cell without a schedule fails to run (its key is
	// where the retired fixed 7-window protocol stored its results).
	Sampling config.SamplingConfig

	// RequireStore, with Store set, turns a store miss into ErrMissingCell
	// instead of simulating the cell. Renders that must reflect exactly what
	// a campaign computed — a coordinator's partial render after a deadline,
	// say — use it to fail fast per-experiment rather than quietly spending
	// hours resimulating holes.
	RequireStore bool

	memo singleflight.Memo[campaign.Cell, sim.Result]

	simulated atomic.Int64
	storeHits atomic.Int64

	mu        sync.Mutex
	requested map[campaign.Cell]struct{}
}

// NewSuite builds a Suite with the default measurement windows, running
// cells on a GOMAXPROCS-wide worker pool.
func NewSuite() *Suite {
	return &Suite{
		Runner: sim.NewRunner(),
		Engine: sim.NewEngine(0),
	}
}

// NewQuickSuite builds a Suite with reduced windows for tests/benchmarks
// (~6x faster, noisier but preserving every qualitative relationship).
func NewQuickSuite() *Suite {
	s := NewSuite()
	s.Runner.Warmup = 20_000
	s.Runner.Measure = 80_000
	return s
}

// Instrument attaches a metrics registry and span tracer to every layer the
// suite drives: the engine (per-cell counters and spans), the runner
// (sampled-run and probe telemetry), the machine pool (reuse hit rate) and
// the persistent store, when one is attached (puts, gets, quarantines).
// Either argument may be nil; attach the Store before calling so it is
// covered. Telemetry never alters results — the instrumented paths feed the
// same numbers to the same sinks.
func (s *Suite) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	s.engine().Reg = reg
	s.engine().Tracer = tr
	s.Runner.Obs = reg
	if s.Runner.Pool != nil {
		s.Runner.Pool.SetObs(reg)
	}
	if s.Store != nil {
		s.Store.SetObs(reg)
	}
}

// StoreParams returns the campaign store protocol matching this suite's
// runner, for campaign.Open.
func (s *Suite) StoreParams() campaign.Params {
	return campaign.Params{Warmup: s.Runner.Warmup, Measure: s.Runner.Measure, Seed: s.Runner.Seed}
}

// Simulated returns how many cells this suite actually simulated (memo and
// store hits excluded) — the number a fully-populated store drives to zero.
func (s *Suite) Simulated() int64 { return s.simulated.Load() }

// StoreHits returns how many cell requests were served by the persistent
// store instead of simulation.
func (s *Suite) StoreHits() int64 { return s.storeHits.Load() }

// RunCell returns the memoised result of one campaign cell, computing (or
// loading from the store) on first request. Concurrent callers
// single-flight. RunCell records the cell as demanded by rendering; the
// sweep-parity tests assert that the demanded set of every Figure*/Table* is
// exactly its declared sweep.
func (s *Suite) RunCell(c campaign.Cell) (sim.Result, error) {
	s.mu.Lock()
	if s.requested == nil {
		s.requested = make(map[campaign.Cell]struct{})
	}
	s.requested[c] = struct{}{}
	s.mu.Unlock()
	return s.runCell(c)
}

// runCell is RunCell without demand tracking; Prefetch uses it so that the
// requested set reflects what rendering consumed, not what the sweep
// submitted.
func (s *Suite) runCell(c campaign.Cell) (sim.Result, error) {
	if c.Mode == campaign.ModeSampled && !c.Cfg.Sampling.Enabled() {
		// Checked before the store: old stores hold fixed-protocol results
		// under exactly this key.
		return sim.Result{}, fmt.Errorf("experiments: sampled cell %s carries no sampling schedule "+
			"(stamp one, e.g. sample.DeriveAdaptive(warmup, measure).Config(), via Suite.Sampling)", c)
	}
	return s.memo.Do(c, func() (sim.Result, error) {
		if s.Store == nil {
			r, err := s.computeCell(c)
			if err == nil {
				s.simulated.Add(1)
			}
			return r, err
		}
		compute := func() (sim.Result, error) { return s.computeCell(c) }
		if s.RequireStore {
			compute = func() (sim.Result, error) {
				return sim.Result{}, fmt.Errorf("experiments: cell %s: %w", c, ErrMissingCell)
			}
		}
		// The store answers a sampled cell with its exact counterpart's
		// result when it holds one: renders prefer exact.
		r, computed, err := s.Store.Do(c, compute)
		if err == nil {
			if computed {
				s.simulated.Add(1)
			} else {
				s.storeHits.Add(1)
			}
		}
		return r, err
	})
}

// RequestedCells returns the set of cells demanded through RunCell (i.e. by
// render loops), for sweep/enumeration parity checks.
func (s *Suite) RequestedCells() map[campaign.Cell]struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := make(map[campaign.Cell]struct{}, len(s.requested))
	for c := range s.requested {
		set[c] = struct{}{}
	}
	return set
}

// computeCell simulates one cell: a multiprogrammed Table 4 workload under a
// named policy, a "bench:" single-thread protocol cell, or a "sched:"
// open-system job-stream trial.
func (s *Suite) computeCell(c campaign.Cell) (sim.Result, error) {
	if name, ok := strings.CutPrefix(c.WID, benchPrefix); ok {
		if c.Mode != campaign.ModeExact {
			return sim.Result{}, fmt.Errorf("experiments: cell %s: bench protocol cells run exact only", c)
		}
		return s.computeBenchCell(c, name)
	}
	if strings.HasPrefix(c.WID, schedPrefix) {
		if c.Mode != campaign.ModeExact {
			return sim.Result{}, fmt.Errorf("experiments: cell %s: sched trials run exact only", c)
		}
		return s.computeSchedCell(c)
	}
	w, err := workload.ByID(c.WID)
	if err != nil {
		return sim.Result{}, err
	}
	pn := PolicyName(c.Pol)
	if !multithreadPolicies[pn] {
		return sim.Result{}, fmt.Errorf("experiments: cell %s: unknown policy %q", c, c.Pol)
	}
	mk := func() cpu.Policy { return newPolicy(pn, c.Cfg) }
	switch c.Mode {
	case campaign.ModeExact:
		return s.Runner.RunWorkload(c.Cfg, w, mk)
	case campaign.ModeSampled:
		return s.Runner.RunWorkloadSampled(c.Cfg, w, mk)
	default:
		return sim.Result{}, fmt.Errorf("experiments: cell %s: unknown mode %q", c, c.Mode)
	}
}

// computeBenchCell runs one benchmark alone under a single-thread protocol
// policy. The result carries the thread's IPC and full statistics; Hmean and
// weighted speedup stay zero (they are relative metrics and need no
// single-thread baseline here — the run IS the baseline).
func (s *Suite) computeBenchCell(c campaign.Cell, name string) (sim.Result, error) {
	prof, err := trace.ProfileByName(name)
	if err != nil {
		return sim.Result{}, err
	}
	var pol cpu.Policy
	switch {
	case c.Pol == polBase:
		pol = policy.NewICount()
	case c.Pol == polCap:
		pol = &sim.CapPolicy{}
	case strings.HasPrefix(c.Pol, polCap+":"):
		rc, frac, err := parseCapPol(c.Pol)
		if err != nil {
			return sim.Result{}, err
		}
		capPol := &sim.CapPolicy{}
		capPol.Caps[rc] = max(1, int(float64(totalOf(c.Cfg, rc))*frac/100))
		pol = capPol
	default:
		return sim.Result{}, fmt.Errorf("experiments: cell %s: unknown single-thread policy %q", c, c.Pol)
	}
	m, err := s.Runner.RunMachine(c.Cfg, []trace.Profile{prof}, pol)
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: bench cell %s: %w", c, err)
	}
	st := m.Stats()
	s.Runner.Recycle(m) // st stays valid: reuse abandons, never clears, old stats
	ipc := st.Threads[0].IPC(st.Cycles)
	return sim.Result{
		Workload:   workload.Workload{Threads: 1, Names: []string{name}},
		Policy:     pol.Name(),
		Stats:      st,
		IPCs:       []float64{ipc},
		Throughput: ipc,
	}, nil
}

// run returns the memoised result of one (cfg, workload, policy) cell — the
// workload-cell convenience form of RunCell — in the suite's execution mode.
func (s *Suite) run(cfg config.Config, w workload.Workload, pn PolicyName) (sim.Result, error) {
	return s.RunCell(s.applyCellMode(cellOf(cfg, w, pn)))
}

// engine returns the suite's engine, defaulting to GOMAXPROCS workers for
// zero-value suites built by tests.
func (s *Suite) engine() *sim.Engine {
	if s.Engine == nil {
		s.Engine = sim.NewEngine(0)
	}
	return s.Engine
}

// Prefetch computes every cell of a sweep on the worker pool, filling the
// memo (and the store, if attached). Cells already computed (or in flight
// from an earlier figure) cost one memo probe. The first error in submission
// order is returned, matching what a serial run would have reported.
// Prefetch applies the suite's execution mode to each cell first, exactly as
// the render loops do, so a sampled suite prefetches the sampled sweep.
func (s *Suite) Prefetch(cells []campaign.Cell) error {
	errs := make([]error, len(cells))
	s.engine().RunLabeled(len(cells),
		func(i int) string { return s.applyCellMode(cells[i]).Key() },
		func(i int) { _, errs[i] = s.runCell(s.applyCellMode(cells[i])) })
	return sim.FirstError(errs)
}

// cellOf builds the campaign cell of one (config, workload, policy) run.
func cellOf(cfg config.Config, w workload.Workload, pn PolicyName) campaign.Cell {
	return campaign.Cell{Cfg: cfg, WID: w.ID(), Pol: string(pn)}
}

// kindCells enumerates the cells of all four groups of one (threads, kind)
// workload type under each policy.
func kindCells(cfg config.Config, threads int, kind workload.Kind, pns ...PolicyName) []campaign.Cell {
	var cells []campaign.Cell
	for _, w := range workload.Groups(threads, kind) {
		for _, pn := range pns {
			cells = append(cells, cellOf(cfg, w, pn))
		}
	}
	return cells
}

// allWorkloadCells enumerates cells for every Table 4 workload under each
// policy.
func allWorkloadCells(cfg config.Config, pns ...PolicyName) []campaign.Cell {
	var cells []campaign.Cell
	for _, w := range workload.All() {
		for _, pn := range pns {
			cells = append(cells, cellOf(cfg, w, pn))
		}
	}
	return cells
}

// kindAverages runs all four groups of (threads, kind) under pn and returns
// the mean throughput and mean Hmean, the paper's per-workload-type summary.
func (s *Suite) kindAverages(cfg config.Config, threads int, kind workload.Kind, pn PolicyName) (tp, hm float64, err error) {
	var tps, hms []float64
	for _, w := range workload.Groups(threads, kind) {
		r, err := s.run(cfg, w, pn)
		if err != nil {
			return 0, 0, err
		}
		tps = append(tps, r.Throughput)
		hms = append(hms, r.Hmean)
	}
	return metrics.Mean(tps), metrics.Mean(hms), nil
}

// allWorkloadAverages averages throughput/Hmean over all 36 workloads.
func (s *Suite) allWorkloadAverages(cfg config.Config, pn PolicyName) (tp, hm float64, err error) {
	var tps, hms []float64
	for _, w := range workload.All() {
		r, err := s.run(cfg, w, pn)
		if err != nil {
			return 0, 0, err
		}
		tps = append(tps, r.Throughput)
		hms = append(hms, r.Hmean)
	}
	return metrics.Mean(tps), metrics.Mean(hms), nil
}

// threadCounts and kind order used by per-type reports.
var threadCounts = []int{2, 3, 4}
