package sched

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dcra/internal/config"
	"dcra/internal/cpu"
	"dcra/internal/policy"
	"dcra/internal/rng"
	"dcra/internal/sim"
)

func newTestRNG() *rng.Source { return rng.New(42) }

// testConfig is a small trial that completes quickly: 2 contexts serving 8
// short jobs at a moderate open rate.
func testConfig(picker Picker, pool *sim.MachinePool) Config {
	return Config{
		Machine:   config.Baseline(),
		Contexts:  2,
		Alloc:     func() cpu.Policy { return policy.NewICount() },
		Picker:    picker,
		Arrivals:  Arrivals{Kind: Open, Jobs: 8, Gap: 2_000},
		Benches:   []string{"gzip", "mcf", "eon", "art"},
		Budget:    4_000,
		Seed:      0x5eed,
		MaxCycles: 400_000,
		Pool:      pool,
	}
}

func TestTrialCompletesAllJobs(t *testing.T) {
	tr, err := Run(testConfig(FCFS{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Completed != len(tr.Jobs) || len(tr.Jobs) != 8 {
		t.Fatalf("completed %d of %d jobs:\n%s", tr.Completed, len(tr.Jobs), tr.EventLogText())
	}
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		if !j.Done {
			t.Fatalf("job %d not done", j.ID)
		}
		if j.Start < j.Arrival || j.Finish <= j.Start {
			t.Fatalf("job %d has inconsistent lifecycle: arrival %d start %d finish %d",
				j.ID, j.Arrival, j.Start, j.Finish)
		}
		if j.Context < 0 || j.Context >= tr.Contexts {
			t.Fatalf("job %d ran on context %d", j.ID, j.Context)
		}
	}
	s := tr.Summary()
	if s.Completed != 8 || s.JobsPerMCycle <= 0 || s.UopsPerCycle <= 0 {
		t.Fatalf("implausible summary %+v", s)
	}
	if s.P50Turnaround <= 0 || s.P99Turnaround < s.P50Turnaround {
		t.Fatalf("implausible turnaround percentiles %+v", s)
	}
	if s.Jain <= 0 || s.Jain > 1 {
		t.Fatalf("Jain index %v outside (0,1]", s.Jain)
	}
	// Event timestamps must be non-decreasing (the log is in simulation
	// order).
	var last uint64
	for _, line := range tr.EventLog {
		at := parseAt(t, line)
		if at < last {
			t.Fatalf("event log out of order at %q:\n%s", line, tr.EventLogText())
		}
		last = at
	}
}

// parseAt extracts the "@<cycle>" prefix of an event-log line.
func parseAt(t *testing.T, line string) uint64 {
	t.Helper()
	head, _, _ := strings.Cut(line, " ")
	at, err := strconv.ParseUint(strings.TrimPrefix(head, "@"), 10, 64)
	if err != nil {
		t.Fatalf("unparseable log line %q: %v", line, err)
	}
	return at
}

// TestHorizonCutsTrialShort: an impossible load under a tiny horizon must
// terminate at the horizon with partial completion, not hang.
func TestHorizonCutsTrialShort(t *testing.T) {
	c := testConfig(FCFS{}, nil)
	c.Arrivals = Arrivals{Kind: Batch, Jobs: 32}
	c.Budget = 50_000
	c.MaxCycles = 20_000
	tr, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cycles < c.MaxCycles {
		t.Fatalf("trial stopped at %d cycles, horizon %d", tr.Cycles, c.MaxCycles)
	}
	if tr.Completed >= len(tr.Jobs) {
		t.Fatalf("all %d jobs completed under an impossible horizon", tr.Completed)
	}
}

// TestSchedDeterminism is the satellite determinism proof: same-seed trials
// — run concurrently against a shared machine pool, as campaign workers
// would — produce byte-identical job event logs. Run under -race in CI.
func TestSchedDeterminism(t *testing.T) {
	pool := sim.NewMachinePool()
	const runs = 4
	trials := make([]*Trial, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			picker, _ := PickerByName("SYMB")
			trials[i], errs[i] = Run(testConfig(picker, pool))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	want := trials[0].EventLogText()
	for i := 1; i < runs; i++ {
		if got := trials[i].EventLogText(); got != want {
			t.Fatalf("event logs differ between same-seed runs:\n--- run 0\n%s--- run %d\n%s", want, i, got)
		}
		if trials[i].EventLogSHA() != trials[0].EventLogSHA() {
			t.Fatalf("event log digests differ")
		}
		if !reflect.DeepEqual(trials[i].Summary(), trials[0].Summary()) {
			t.Fatalf("summaries differ: %+v vs %+v", trials[0].Summary(), trials[i].Summary())
		}
		if !reflect.DeepEqual(trials[i].Stats, trials[0].Stats) {
			t.Fatalf("machine statistics differ between same-seed runs")
		}
	}
}

// TestArrivalProcesses pins the shape of each arrival process.
func TestArrivalProcesses(t *testing.T) {
	rg := newTestRNG()
	batch := Arrivals{Kind: Batch, Jobs: 5}
	for _, at := range batch.Times(rg) {
		if at != 0 {
			t.Fatal("batch arrival after cycle 0")
		}
	}
	open := Arrivals{Kind: Open, Jobs: 5, Gap: 100}
	for i, at := range open.Times(rg) {
		if at != uint64(i)*100 {
			t.Fatalf("open arrival %d at %d, want %d", i, at, i*100)
		}
	}
	burst := Arrivals{Kind: Bursty, Jobs: 8, Gap: 100, Burst: 4}
	times := burst.Times(rg)
	if times[0] != times[3] || times[4] != times[7] {
		t.Fatalf("burst members not simultaneous: %v", times)
	}
	if times[4] <= times[0] {
		t.Fatalf("bursts not separated: %v", times)
	}
	// Same seed, same schedule; batch and open must not consume randomness,
	// so the bursty draws after them land identically.
	rg2 := newTestRNG()
	batch.Times(rg2)
	open.Times(rg2)
	if again := burst.Times(rg2); !reflect.DeepEqual(times, again) {
		t.Fatalf("bursty schedule not seed-deterministic: %v vs %v", times, again)
	}
}

// TestPickers exercises each picker's choice rule on a crafted queue.
func TestPickers(t *testing.T) {
	mk := func(id int, mem bool, budget uint64) *Job {
		return &Job{ID: id, Mem: mem, Budget: budget}
	}
	queue := []*Job{mk(0, true, 9_000), mk(1, false, 2_000), mk(2, true, 5_000)}

	if got := (FCFS{}).Pick(queue, nil); got != 0 {
		t.Fatalf("FCFS picked %d", got)
	}
	if got := (SJF{}).Pick(queue, nil); got != 1 {
		t.Fatalf("SJF picked %d, want the 2k-budget job", got)
	}
	// One MEM job running, no ILP: symbiosis must pick the first ILP job.
	running := []*Job{mk(9, true, 1), nil}
	if got := (Symbiosis{}).Pick(queue, running); got != 1 {
		t.Fatalf("SYMB picked %d with a MEM job running, want ILP job at 1", got)
	}
	// One ILP running, no MEM: prefer the first MEM job.
	running = []*Job{mk(9, false, 1), nil}
	if got := (Symbiosis{}).Pick(queue, running); got != 0 {
		t.Fatalf("SYMB picked %d with an ILP job running, want MEM job at 0", got)
	}
	// Preferred class absent: fall back to FCFS.
	allMem := []*Job{mk(0, true, 1), mk(1, true, 1)}
	if got := (Symbiosis{}).Pick(allMem, running); got != 0 {
		t.Fatalf("SYMB fallback picked %d", got)
	}
	if _, err := PickerByName("nope"); err == nil {
		t.Fatal("unknown picker accepted")
	}
}

// TestConfigValidation guards the error paths.
func TestConfigValidation(t *testing.T) {
	// Malformed configs — zero contexts, missing policies, an empty job set,
	// a zero arrival rate — must fail with the typed ErrConfig so sweep
	// drivers can tell "this trial is nonsense" from simulation failures.
	bad := []func(*Config){
		func(c *Config) { c.Contexts = 0 },
		func(c *Config) { c.Alloc = nil },
		func(c *Config) { c.Picker = nil },
		func(c *Config) { c.Benches = nil },
		func(c *Config) { c.Budget = 0 },
		func(c *Config) { c.MaxCycles = 0 },
		func(c *Config) { c.Arrivals.Jobs = 0 },
		func(c *Config) { c.Arrivals.Jobs = -3 },
		func(c *Config) { c.Arrivals = Arrivals{Kind: "nope", Jobs: 1} },
		func(c *Config) { c.Arrivals = Arrivals{Kind: Open, Jobs: 1} },
		func(c *Config) { c.Arrivals = Arrivals{Kind: Bursty, Jobs: 1, Gap: 5} },
	}
	for i, mutate := range bad {
		c := testConfig(FCFS{}, nil)
		mutate(&c)
		_, err := Run(c)
		if err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
		if !errors.Is(err, ErrConfig) {
			t.Fatalf("bad config %d failed without ErrConfig: %v", i, err)
		}
	}
	// An unknown bench is a data error discovered past validation, not a
	// config-shape error.
	c := testConfig(FCFS{}, nil)
	c.Benches = []string{"not-a-bench"}
	if _, err := Run(c); err == nil || errors.Is(err, ErrConfig) {
		t.Fatalf("unknown bench: err = %v, want non-ErrConfig failure", err)
	}
}
