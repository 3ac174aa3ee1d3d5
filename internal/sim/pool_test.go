package sim

import (
	"reflect"
	"testing"

	"dcra/internal/config"
	"dcra/internal/core"
	"dcra/internal/cpu"
	"dcra/internal/policy"
	"dcra/internal/trace"
	"dcra/internal/workload"
)

// poolCell is one (config, workload, policy) point of the reuse matrix.
type poolCell struct {
	cfg config.Config
	w   workload.Workload
	mk  func() cpu.Policy
}

// mixedCells builds a cell set that crosses configurations, workload sizes
// and policies, so pooled reuse has to survive shape changes, latency-only
// config changes and per-run policy state.
func mixedCells(t *testing.T) []poolCell {
	t.Helper()
	base := config.Baseline()
	get := func(threads int, kind workload.Kind, group int) workload.Workload {
		w, err := workload.Get(threads, kind, group)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	icount := func() cpu.Policy { return policy.NewICount() }
	flush := func() cpu.Policy { return policy.NewFlush() }
	dcra := func() cpu.Policy { return core.Default() }
	return []poolCell{
		{base, get(2, workload.MIX, 1), icount},
		{base, get(2, workload.MEM, 1), dcra},
		{base.WithMemLatency(500, 25), get(2, workload.MIX, 1), flush},
		{base, get(4, workload.ILP, 2), dcra},
		{base.WithPhysRegs(288), get(2, workload.MEM, 2), icount},
		{base, get(2, workload.MIX, 1), icount}, // repeat: exercises the memo-free path twice
	}
}

func runCells(t *testing.T, r *Runner, cells []poolCell) []Result {
	t.Helper()
	out := make([]Result, len(cells))
	for i, c := range cells {
		res, err := r.RunWorkload(c.cfg, c.w, c.mk())
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		out[i] = res
	}
	return out
}

// TestPooledRunsBitIdentical is the reuse-correctness gate demanded by the
// machine-lifecycle overhaul: a mixed set of (config, workload, policy)
// cells run on fresh machines (Pool == nil) and run twice through a pooled
// runner — the second pass re-running every cell on machines recycled from
// the first — must produce bit-identical Result structs.
func TestPooledRunsBitIdentical(t *testing.T) {
	cells := mixedCells(t)

	freshRunner := quickRunner()
	freshRunner.Pool = nil
	fresh := runCells(t, freshRunner, cells)

	pooledRunner := quickRunner() // NewRunner attaches a pool
	if pooledRunner.Pool == nil {
		t.Fatal("NewRunner must attach a machine pool")
	}
	first := runCells(t, pooledRunner, cells)
	second := runCells(t, pooledRunner, cells) // every machine here is recycled

	for i := range cells {
		if !reflect.DeepEqual(fresh[i], first[i]) {
			t.Errorf("cell %d: pooled first pass diverged from fresh machines:\nfresh:  %+v\npooled: %+v",
				i, fresh[i], first[i])
		}
		if !reflect.DeepEqual(fresh[i], second[i]) {
			t.Errorf("cell %d: pooled re-run diverged from fresh machines:\nfresh:  %+v\npooled: %+v",
				i, fresh[i], second[i])
		}
	}
}

// TestMachinePoolParallelHammer drives one shared pool from the engine's
// worker pool (run under -race in CI): many concurrent Get/run/Put cycles
// across two shapes must stay data-race-free and keep every result equal to
// its serial reference.
func TestMachinePoolParallelHammer(t *testing.T) {
	cells := mixedCells(t)

	ref := runCells(t, quickRunner(), cells)

	r := quickRunner()
	// Pre-resolve the single-thread baselines so the parallel phase measures
	// pool contention, not baseline single-flighting.
	for _, c := range cells {
		for _, n := range c.w.Names {
			if _, err := r.SingleIPC(c.cfg, n); err != nil {
				t.Fatal(err)
			}
		}
	}

	const rounds = 4
	results := make([]Result, rounds*len(cells))
	errs := make([]error, rounds*len(cells))
	NewEngine(8).RunLabeled(len(results), nil, func(i int) {
		c := cells[i%len(cells)]
		results[i], errs[i] = r.RunWorkload(c.cfg, c.w, c.mk())
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !reflect.DeepEqual(res, ref[i%len(cells)]) {
			t.Errorf("parallel pooled run %d diverged from serial reference", i)
		}
	}
}

// mutatingPolicy flips the runner's measurement window from inside a run —
// exactly the misuse the Runner doc forbids.
type mutatingPolicy struct {
	policy.ICount
	r     *Runner
	fired bool
}

func (p *mutatingPolicy) Name() string { return "MUTATE" }
func (p *mutatingPolicy) Tick(*cpu.Machine) {
	if !p.fired {
		p.fired = true
		p.r.Measure++
	}
}

// TestRunnerGuardsInFlightMutation documents and enforces the Runner
// invariant: changing the windows or seed while a run is in flight panics
// instead of silently mixing protocols.
func TestRunnerGuardsInFlightMutation(t *testing.T) {
	r := quickRunner()
	defer func() {
		if recover() == nil {
			t.Fatal("mutating Runner.Measure mid-run must panic")
		}
		if n := r.InFlight(); n != 0 {
			t.Fatalf("in-flight count not restored: %d", n)
		}
	}()
	_, err := r.RunMachine(config.Baseline(),
		[]trace.Profile{trace.MustProfile("gzip")}, &mutatingPolicy{r: r})
	t.Fatalf("run with mid-flight mutation returned (err=%v) instead of panicking", err)
}
