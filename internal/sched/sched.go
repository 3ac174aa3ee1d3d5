// Package sched simulates the SMT core as a server in an open system: jobs
// — benchmark profiles with committed-instruction budgets — arrive over time
// from a seeded arrival process, wait in a queue, are co-scheduled onto free
// hardware contexts by a pluggable picker policy, run to their budget and
// depart. Where the experiment suite measures steady-state IPC of fixed
// thread sets (the paper's closed workloads), sched measures what a service
// owner would: throughput under load, turnaround percentiles and fairness
// across jobs.
//
// Determinism is a hard requirement, exactly as for the closed experiments:
// one seed fixes the arrival schedule, every job's instruction stream and
// every scheduling decision, so two same-seed trials produce byte-identical
// job event logs (asserted by the determinism tests and digested into every
// persisted result).
//
// The mechanism under the loop is cpu.(*Machine).RebindThread — drain one
// hardware context and bind it to a fresh stream, leaving the other
// contexts' committed streams untouched — plus ParkThread for idle contexts
// and RunToTargets for exact job-completion timing.
package sched

import (
	"errors"
	"fmt"

	"dcra/internal/config"
	"dcra/internal/cpu"
	"dcra/internal/obs"
	"dcra/internal/rng"
	"dcra/internal/sim"
	"dcra/internal/stats"
	"dcra/internal/trace"
)

// SchedPID is the trace pid lane group job spans live on, one tid per
// hardware context, in the cycle domain (timestamps are simulation
// cycles, so same-seed trials produce identical traces).
const SchedPID = 3

// Job is one unit of work: a benchmark profile to execute for a fixed number
// of committed micro-ops.
type Job struct {
	ID      int    `json:"id"`
	Bench   string `json:"bench"`
	Mem     bool   `json:"mem"` // MEM-class per the paper's taxonomy
	Budget  uint64 `json:"budget"`
	Arrival uint64 `json:"arrival"`

	// Filled in as the trial runs.
	Start   uint64 `json:"start"`
	Finish  uint64 `json:"finish"`
	Context int    `json:"context"`
	Done    bool   `json:"done"`

	prof trace.Profile // resolved once at job creation
}

// Turnaround returns the job's arrival-to-departure time in cycles (0 if the
// job never completed).
func (j *Job) Turnaround() uint64 {
	if !j.Done {
		return 0
	}
	return j.Finish - j.Arrival
}

// Config describes one scheduling trial.
type Config struct {
	// Machine is the processor configuration; Contexts hardware contexts of
	// it serve the job stream.
	Machine  config.Config
	Contexts int

	// Alloc builds the machine-level allocation/fetch policy (DCRA, ICOUNT,
	// ...). Run calls it once per trial, and policies are stateful, so it
	// must return an instance no other machine uses.
	Alloc func() cpu.Policy

	// Picker is the co-schedule policy choosing which queued job occupies a
	// freed context.
	Picker Picker

	// Arrivals is the seeded arrival process; Benches is the pool jobs draw
	// their profiles from (seeded uniform pick); Budget is the mean job
	// size — each job's committed-instruction budget draws uniformly from
	// [Budget/2, 3*Budget/2], so shortest-budget scheduling has something
	// to sort by.
	Arrivals Arrivals
	Benches  []string
	Budget   uint64

	// Seed fixes every random choice of the trial: arrival times, bench
	// picks and each job's instruction stream.
	Seed uint64

	// MaxCycles bounds the trial; jobs still queued or running when it
	// expires count as not completed.
	MaxCycles uint64

	// Pool, when non-nil, recycles machine allocations across trials
	// (reuse is observationally invisible, exactly as for Runner cells).
	Pool *sim.MachinePool

	// Obs, when set, receives trial telemetry (queue depth at scheduling
	// events, picker decisions, job turnaround); Tracer records one
	// cycle-domain span per completed job on its context's lane. Neither
	// touches the event log or any scheduling decision.
	Obs    *obs.Registry
	Tracer *obs.Tracer
}

// Trial is the outcome of one scheduling run.
type Trial struct {
	Contexts int
	Picker   string
	Alloc    string
	Arrivals Arrivals

	Jobs      []Job
	Cycles    uint64
	Completed int

	// EventLog records every arrival, placement and departure in
	// simulation order; same-seed trials reproduce it byte for byte.
	EventLog []string

	Stats *stats.Stats
}

// ErrConfig tags every trial-validation failure, so callers sweeping over
// generated configs can distinguish "this trial is malformed" (skip or
// report it) from simulation failures with errors.Is(err, sched.ErrConfig).
var ErrConfig = errors.New("invalid trial config")

// validate rejects malformed trial configs before any machine is built.
func (c *Config) validate() error {
	if c.Contexts < 1 {
		return fmt.Errorf("sched: %w: trial needs >= 1 hardware context, got %d", ErrConfig, c.Contexts)
	}
	if c.Alloc == nil || c.Picker == nil {
		return fmt.Errorf("sched: %w: trial needs an allocation policy factory and a picker", ErrConfig)
	}
	if len(c.Benches) == 0 {
		return fmt.Errorf("sched: %w: trial needs a non-empty bench pool", ErrConfig)
	}
	if c.Budget == 0 {
		return fmt.Errorf("sched: %w: jobs need a non-zero instruction budget", ErrConfig)
	}
	if c.MaxCycles == 0 {
		return fmt.Errorf("sched: %w: trial needs a non-zero cycle bound", ErrConfig)
	}
	return c.Arrivals.Validate()
}

// makeJobs draws the trial's job list from the seeded RNG: arrival times
// first, then per job a bench pick and a budget draw (the draw order is part
// of the determinism contract — changing it would re-key every recorded
// trial).
func (c *Config) makeJobs() ([]Job, error) {
	rg := rng.New(c.Seed ^ 0xa11c0115eed5)
	times := c.Arrivals.Times(rg)
	jobs := make([]Job, c.Arrivals.Jobs)
	for i := range jobs {
		name := c.Benches[rg.Intn(len(c.Benches))]
		p, err := trace.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		budget := c.Budget/2 + rg.Uint64()%(c.Budget+1)
		if budget == 0 {
			budget = 1
		}
		jobs[i] = Job{
			ID:      i,
			Bench:   name,
			Mem:     p.Mem,
			Budget:  budget,
			Arrival: times[i],
			Context: -1,
			prof:    p,
		}
	}
	return jobs, nil
}

// jobSeed derives the stream seed of one job; distinct jobs get independent
// streams even when they run the same benchmark.
func jobSeed(trialSeed uint64, jobID int) uint64 {
	return trialSeed + (uint64(jobID)+1)*0x9e3779b97f4a7c15
}

// Run executes one trial: it acquires a machine (from the pool when set),
// parks every context, then plays the arrival process against the picker
// until all jobs have departed or MaxCycles expire.
func Run(c Config) (*Trial, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	jobs, err := c.makeJobs()
	if err != nil {
		return nil, err
	}

	// The machine is constructed over placeholder profiles (the bench pool,
	// round-robin) purely to fix its shape and initial cache contents; every
	// context is parked before the first cycle and only RebindThread
	// activates one. The placeholder choice is part of the seed-determined
	// initial state, like New's prewarm.
	placeholders := make([]trace.Profile, c.Contexts)
	for i := range placeholders {
		p, err := trace.ProfileByName(c.Benches[i%len(c.Benches)])
		if err != nil {
			return nil, err
		}
		placeholders[i] = p
	}
	pol := c.Alloc()
	m, err := c.Pool.Get(c.Machine, placeholders, pol, c.Seed)
	if err != nil {
		return nil, fmt.Errorf("sched: building %d-context machine: %w", c.Contexts, err)
	}
	for t := 0; t < c.Contexts; t++ {
		m.ParkThread(t)
	}

	tr := &Trial{
		Contexts: c.Contexts,
		Picker:   c.Picker.Name(),
		Alloc:    pol.Name(),
		Arrivals: c.Arrivals,
	}
	logf := func(format string, args ...any) {
		tr.EventLog = append(tr.EventLog, fmt.Sprintf(format, args...))
	}

	depth := c.Obs.Histogram("sched.queue.depth", obs.DepthBounds)
	picks := c.Obs.Counter("sched.picker.decisions")
	turnaround := c.Obs.Histogram("sched.turnaround.cycles", obs.CycleBounds)
	arrived := c.Obs.Counter("sched.jobs.arrived")
	completed := c.Obs.Counter("sched.jobs.completed")
	if c.Tracer != nil {
		c.Tracer.Process(SchedPID, "sched contexts (cycle domain)")
		for t := 0; t < c.Contexts; t++ {
			c.Tracer.Lane(SchedPID, t, fmt.Sprintf("ctx %d", t))
		}
	}

	var (
		queue   []*Job
		running = make([]*Job, c.Contexts)
		targets = make([]uint64, c.Contexts)
		active  = 0
		nextArr = 0
	)
	for t := range targets {
		targets[t] = cpu.NoTarget
	}

	for {
		now := m.Cycle()

		// Admit every job that has arrived by now, in arrival order.
		for nextArr < len(jobs) && jobs[nextArr].Arrival <= now {
			j := &jobs[nextArr]
			queue = append(queue, j)
			logf("@%d arrive job=%d bench=%s mem=%t budget=%d", j.Arrival, j.ID, j.Bench, j.Mem, j.Budget)
			arrived.Inc()
			nextArr++
		}
		depth.Observe(int64(len(queue)))

		// Place queued jobs onto free contexts, picker's choice each slot.
		for len(queue) > 0 && active < c.Contexts {
			ctx := -1
			for t, r := range running {
				if r == nil {
					ctx = t
					break
				}
			}
			i := c.Picker.Pick(queue, running)
			picks.Inc()
			j := queue[i]
			queue = append(queue[:i], queue[i+1:]...)
			if err := m.RebindThread(ctx, j.prof, jobSeed(c.Seed, j.ID)); err != nil {
				return nil, fmt.Errorf("sched: placing job %d on context %d: %w", j.ID, ctx, err)
			}
			j.Start = now
			j.Context = ctx
			running[ctx] = j
			targets[ctx] = m.Stats().Threads[ctx].Committed + j.Budget
			active++
			logf("@%d start job=%d ctx=%d wait=%d", now, j.ID, ctx, now-j.Arrival)
		}

		if active == 0 && len(queue) == 0 && nextArr == len(jobs) {
			break // drained: every job departed
		}
		if now >= c.MaxCycles {
			break // horizon: remaining jobs count as incomplete
		}

		// Advance to the next scheduling event: a job completion (detected
		// by RunToTargets), the next arrival, or the horizon.
		stop := c.MaxCycles
		if nextArr < len(jobs) && jobs[nextArr].Arrival < stop {
			stop = jobs[nextArr].Arrival
		}
		// stop > now: arrivals at <= now were admitted above and the
		// horizon check would have broken the loop.
		if active > 0 {
			m.RunToTargets(targets, stop-now)
		} else {
			m.Run(stop - now)
		}
		now = m.Cycle()

		// Retire every job whose budget committed.
		for ctx, j := range running {
			if j == nil || m.Stats().Threads[ctx].Committed < targets[ctx] {
				continue
			}
			j.Finish = now
			j.Done = true
			tr.Completed++
			completed.Inc()
			turnaround.Observe(int64(j.Turnaround()))
			if c.Tracer != nil {
				c.Tracer.CompleteAt(SchedPID, j.Context, fmt.Sprintf("job %d %s", j.ID, j.Bench),
					"job", float64(j.Start), float64(j.Finish-j.Start))
			}
			m.ParkThread(ctx)
			running[ctx] = nil
			targets[ctx] = cpu.NoTarget
			active--
			logf("@%d finish job=%d ctx=%d turnaround=%d", now, j.ID, ctx, j.Turnaround())
		}
	}

	tr.Cycles = m.Cycle()
	tr.Jobs = jobs
	tr.Stats = m.Stats()
	logf("@%d end completed=%d/%d", tr.Cycles, tr.Completed, len(jobs))
	c.Pool.Put(m) // nil-safe; Stats stay valid after reuse
	return tr, nil
}
