package experiments

import (
	"fmt"
	"strings"
	"sync"

	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/cpu"
	"dcra/internal/policy"
	"dcra/internal/report"
	"dcra/internal/sched"
	"dcra/internal/sim"
)

// Open-system cell vocabulary: campaign cells whose WID starts with "sched:"
// run a job-stream scheduling trial instead of a fixed-window workload. The
// WID encodes the trial shape —
//
//	sched:c<contexts>:<kind>:g<gap>[:k<burst>]:j<jobs>:b<budget>
//
// — and Pol encodes the policy pair "<picker>+<alloc>" (e.g. "SYMB+DCRA").
// Seed and cycle horizon come from the suite's measurement protocol, so the
// store's Params manifest pins them exactly as for closed cells.
const schedPrefix = "sched:"

// SchedServiceMix is the bench pool open-system jobs draw from: four ILP and
// four MEM programs, so the symbiosis picker has a mix to steer.
var SchedServiceMix = []string{"gzip", "mcf", "eon", "art", "gcc", "swim", "bzip2", "equake"}

// Default trial shape of the sched experiment.
const (
	schedContexts = 4
	schedJobs     = 16
	schedBudget   = 24_000
)

// SchedPickers and SchedAllocs span the sched experiment's policy grid.
var (
	SchedPickers = sched.PickerNames()
	SchedAllocs  = []PolicyName{PolICount, PolDCRA}
)

// SchedArrivalPoints returns the load points the sched experiment sweeps:
// an overloaded fixed-rate stream, an underloaded one, and a bursty stream
// at the overloaded long-run rate.
func SchedArrivalPoints() []sched.Arrivals {
	return []sched.Arrivals{
		{Kind: sched.Open, Jobs: schedJobs, Gap: 3_000},
		{Kind: sched.Open, Jobs: schedJobs, Gap: 9_000},
		{Kind: sched.Bursty, Jobs: schedJobs, Gap: 3_000, Burst: 4},
	}
}

// schedWID encodes the trial shape of arrival point a, on schedContexts
// contexts with schedBudget-uop jobs, as a cell WID.
func schedWID(a sched.Arrivals) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%sc%d:%s:g%d", schedPrefix, schedContexts, a.Kind, a.Gap)
	if a.Kind == sched.Bursty {
		fmt.Fprintf(&sb, ":k%d", a.Burst)
	}
	fmt.Fprintf(&sb, ":j%d:b%d", a.Jobs, schedBudget)
	return sb.String()
}

// schedArrivals maps every WID the sched sweep enumerates to its arrival
// point, built once. A WID outside it is refused rather than decoded, so a
// cell cannot size a trial (contexts, jobs) beyond what the experiment runs.
var schedArrivals = sync.OnceValue(func() map[string]sched.Arrivals {
	m := make(map[string]sched.Arrivals)
	for _, a := range SchedArrivalPoints() {
		m[schedWID(a)] = a
	}
	return m
})

// schedMaxCycles derives the trial horizon from the suite's measurement
// protocol, so quick and full campaigns scale together and the store params
// pin it.
func schedMaxCycles(s *Suite) uint64 {
	return s.Runner.Warmup + 20*s.Runner.Measure
}

// computeSchedCell runs one open-system trial cell.
func (s *Suite) computeSchedCell(c campaign.Cell) (sim.Result, error) {
	arrivals, ok := schedArrivals()[c.WID]
	if !ok {
		return sim.Result{}, fmt.Errorf("experiments: cell %s: no sched trial has workload %q", c, c.WID)
	}
	pickerName, allocName, ok := strings.Cut(c.Pol, "+")
	if !ok {
		return sim.Result{}, fmt.Errorf("experiments: sched cell %s: policy %q is not <picker>+<alloc>", c, c.Pol)
	}
	picker, err := sched.PickerByName(pickerName)
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: sched cell %s: %w", c, err)
	}
	alloc, err := policy.New(allocName, c.Cfg)
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: sched cell %s: allocation %w", c, err)
	}
	trial, err := sched.Run(sched.Config{
		Machine:   c.Cfg,
		Contexts:  schedContexts,
		Alloc:     func() cpu.Policy { return alloc },
		Picker:    picker,
		Arrivals:  arrivals,
		Benches:   SchedServiceMix,
		Budget:    schedBudget,
		Seed:      s.Runner.Seed,
		MaxCycles: schedMaxCycles(s),
		Pool:      s.Runner.Pool,
		Obs:       s.Runner.Obs,
	})
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: sched cell %s: %w", c, err)
	}
	return trial.Result(), nil
}

// SchedSweep declares the open-system experiment's cells: every arrival
// point under every picker × allocation-policy pair on the baseline
// configuration.
func SchedSweep() campaign.Sweep {
	cfg := config.Baseline()
	s := campaign.Sweep{Name: "sched"}
	for _, a := range SchedArrivalPoints() {
		for _, picker := range SchedPickers {
			for _, alloc := range SchedAllocs {
				s.Cells = append(s.Cells, campaign.Cell{
					Cfg: cfg,
					WID: schedWID(a),
					Pol: picker + "+" + string(alloc),
				})
			}
		}
	}
	return s
}

// SchedTable runs the sched sweep and renders the load × picker × alloc
// grid: completed jobs, throughput, turnaround percentiles and fairness.
func SchedTable(s *Suite) (*report.Table, error) {
	if err := s.Prefetch(SchedSweep().Cells); err != nil {
		return nil, err
	}
	cfg := config.Baseline()
	t := report.NewTable("Open-system scheduler: load x co-schedule policy x allocation policy",
		"arrival", "picker", "alloc", "done", "jobs/Mcyc", "uops/cyc", "p50 turn", "p99 turn", "jain")
	for _, a := range SchedArrivalPoints() {
		for _, picker := range SchedPickers {
			for _, alloc := range SchedAllocs {
				c := campaign.Cell{Cfg: cfg, WID: schedWID(a), Pol: picker + "+" + string(alloc)}
				r, err := s.RunCell(c)
				if err != nil {
					return nil, err
				}
				sum := r.Sched
				if sum == nil {
					return nil, fmt.Errorf("experiments: cell %s returned no sched summary", c)
				}
				t.AddRow(a.String(), picker, string(alloc),
					fmt.Sprintf("%d/%d", sum.Completed, sum.Jobs),
					sum.JobsPerMCycle, sum.UopsPerCycle,
					sum.P50Turnaround, sum.P99Turnaround, sum.Jain)
			}
		}
	}
	t.AddNote("jobs draw %d-uop budgets from a %d-bench ILP/MEM mix onto %d contexts; turnarounds in cycles",
		schedBudget, len(SchedServiceMix), schedContexts)
	return t, nil
}
