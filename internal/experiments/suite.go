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

// capPol is one Figure 2 restriction: resource rc capped to frac percent.
type capPol struct {
	rc   cpu.Resource
	frac float64
}

// capPols maps every Figure 2 restriction policy string to its restriction,
// built once. A "CAP:" policy outside the Figure 2 grid is refused.
var capPols = sync.OnceValue(func() map[string]capPol {
	m := make(map[string]capPol)
	for _, rc := range Figure2Resources {
		for _, frac := range Figure2Fractions {
			m[capPolName(rc, frac)] = capPol{rc, frac}
		}
	}
	return m
})

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

// Instrument attaches a metrics registry and span tracer to every layer the
// suite drives: the engine (per-cell counters and spans), the runner
// (sampled-run telemetry), the machine pool (reuse hit rate) and
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
	// Checked before the store: old stores hold fixed-protocol results under
	// the key of a sampled cell without a schedule.
	if err := checkMode(c); err != nil {
		return sim.Result{}, err
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

// checkMode rejects a cell whose execution mode is unknown or disagrees with
// its config: the runner picks a cell's protocol from cfg.Sampling alone, so
// a sampled cell must carry a schedule and an exact one must not.
func checkMode(c campaign.Cell) error {
	switch {
	case c.Mode != campaign.ModeExact && c.Mode != campaign.ModeSampled:
		return fmt.Errorf("experiments: cell %s: unknown mode %q", c, c.Mode)
	case c.Mode == campaign.ModeSampled && !c.Cfg.Sampling.Enabled():
		return fmt.Errorf("experiments: sampled cell %s carries no sampling schedule "+
			"(stamp one, e.g. sample.DeriveAdaptive(warmup, measure).Config(), via Suite.Sampling)", c)
	case c.Mode == campaign.ModeExact && c.Cfg.Sampling.Enabled():
		return fmt.Errorf("experiments: exact cell %s carries a sampling schedule", c)
	}
	return nil
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
// named policy, in the mode checkMode has matched to its config, a "bench:"
// single-thread protocol cell, or a "sched:" open-system job-stream trial.
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
	pol, err := policy.New(c.Pol, c.Cfg)
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: cell %s: %w", c, err)
	}
	return s.Runner.RunWorkload(c.Cfg, w, func() cpu.Policy { return pol }) // one run, one instance
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
	cp, restricted := capPols()[c.Pol]
	switch {
	case c.Pol == polBase:
		pol = policy.NewICount()
	case c.Pol == polCap:
		pol = &sim.CapPolicy{}
	case restricted:
		capped := &sim.CapPolicy{}
		capped.Caps[cp.rc] = max(1, int(float64(cpu.TotalOf(c.Cfg, 1, cp.rc))*cp.frac/100))
		pol = capped
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

// averages runs every workload of ws under pn and returns the mean
// throughput and mean Hmean: over the four groups of one (threads, kind)
// type, the paper's per-workload-type summary, or over all 36 workloads.
func (s *Suite) averages(cfg config.Config, ws []workload.Workload, pn PolicyName) (tp, hm float64, err error) {
	var tps, hms []float64
	for _, w := range ws {
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
