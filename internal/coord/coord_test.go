package coord_test

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/coord"
	"dcra/internal/sample"
	"dcra/internal/sim"
	"dcra/internal/stats"
	"dcra/internal/workload"
)

// chaosSweep builds n synthetic cells; evaluation is a pure function of the
// cell (chaosResult), so any schedule of any fleet must produce the same
// store bytes.
func chaosSweep(n int) campaign.Sweep {
	s := campaign.Sweep{Name: "chaos"}
	cfg := config.Baseline()
	for i := 0; i < n; i++ {
		s.Cells = append(s.Cells, campaign.Cell{Cfg: cfg, WID: fmt.Sprintf("bench:fake%d", i), Pol: "BASE"})
	}
	return s
}

// chaosResult derives a result deterministically from the cell identity,
// with awkward floats so byte comparisons have teeth. It is shaped as
// renders read a result (campaign.CheckResult), so the coordinator accepts
// it.
func chaosResult(c campaign.Cell) sim.Result {
	var f float64
	for i, b := range []byte(c.Key()) {
		f += float64(b) * float64(i+1)
	}
	return sim.Result{
		Workload:   workload.Workload{Threads: 2},
		Policy:     c.Pol,
		Stats:      stats.New(2),
		IPCs:       []float64{f / 3.0, f / 7.0},
		Throughput: f/3.0 + f/7.0,
		Hmean:      2 / (3.0/f + 7.0/f),
	}
}

// slowRunner evaluates cells with chaosResult after a fixed delay (so leases
// live long enough for heartbeats and expiries to matter), counting computes
// per cell and optionally failing chosen cells for their first failN tries.
type slowRunner struct {
	delay time.Duration

	mu       sync.Mutex
	computes map[string]int
	failN    map[string]int
}

func newSlowRunner(delay time.Duration) *slowRunner {
	return &slowRunner{delay: delay, computes: make(map[string]int), failN: make(map[string]int)}
}

func (r *slowRunner) RunCell(c campaign.Cell) (sim.Result, error) {
	time.Sleep(r.delay)
	key := c.Key()
	r.mu.Lock()
	r.computes[key]++
	n := r.computes[key]
	fails := r.failN[key]
	r.mu.Unlock()
	if n <= fails {
		return sim.Result{}, fmt.Errorf("injected compute failure %d/%d for %s", n, fails, c)
	}
	return chaosResult(c), nil
}

func (r *slowRunner) count(key string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.computes[key]
}

func runnerFactory(r campaign.Runner) coord.RunnerFactory {
	return func(campaign.Params) (campaign.Runner, error) { return r, nil }
}

var chaosParams = campaign.Params{Warmup: 11, Measure: 22, Seed: 33}

// fastOpts compresses every control-plane time constant so chaos scenarios
// finish in tens of milliseconds.
func fastOpts(t *testing.T, dir string, seed uint64) coord.Options {
	t.Helper()
	return coord.Options{
		LeaseTTL:       40 * time.Millisecond,
		RetryBudget:    10,
		BackoffBase:    time.Millisecond,
		BackoffMax:     8 * time.Millisecond,
		SpeculateAfter: 60 * time.Millisecond,
		PollInterval:   5 * time.Millisecond,
		Seed:           seed,
		Checkpoint:     filepath.Join(dir, "coordinator.json"),
		Logf:           t.Logf,
	}
}

// readCells maps cell file name -> contents for a store directory.
func readCells(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "cells"))
	if err != nil {
		t.Fatal(err)
	}
	cells := make(map[string]string)
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, "cells", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		cells[e.Name()] = string(data)
	}
	return cells
}

// referenceCells renders the unfaulted single-process store: every cell Put
// directly, exactly what `campaign run` does without a coordinator.
func referenceCells(t *testing.T, sweep campaign.Sweep) map[string]string {
	t.Helper()
	dir := t.TempDir()
	st, err := campaign.Open(dir, chaosParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sweep.Cells {
		if err := st.Put(c, chaosResult(c)); err != nil {
			t.Fatal(err)
		}
	}
	return readCells(t, dir)
}

func assertStoresIdentical(t *testing.T, want, got map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("store holds %d cell files, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("cell file %s missing", name)
			continue
		}
		if g != w {
			t.Errorf("cell file %s differs from the unfaulted run", name)
		}
	}
}

func TestCoordinatorCompletesHealthyFleet(t *testing.T) {
	sweep := chaosSweep(18)
	dir := t.TempDir()
	st, err := campaign.Open(dir, chaosParams)
	if err != nil {
		t.Fatal(err)
	}
	co, err := coord.New("chaos", sweep, st, fastOpts(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	lb := coord.NewLoopback(co)
	runner := newSlowRunner(2 * time.Millisecond)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		w := &coord.Worker{ID: fmt.Sprintf("w%d", i), Transport: lb, NewRunner: runnerFactory(runner)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(); err != nil {
				t.Errorf("worker %s: %v", w.ID, err)
			}
			if w.Missing != 0 {
				t.Errorf("worker %s saw %d missing cells", w.ID, w.Missing)
			}
		}()
	}
	wg.Wait()

	status := co.Status()
	if !status.Complete() || status.Done != len(sweep.Cells) || status.Exhausted != 0 {
		t.Fatalf("campaign did not complete: %+v", status)
	}
	assertStoresIdentical(t, referenceCells(t, sweep), readCells(t, dir))
	// A pure healthy run computes each cell exactly once: no lease expired,
	// so no work was duplicated.
	for _, c := range sweep.Cells {
		if n := runner.count(c.Key()); n != 1 {
			t.Errorf("cell %s computed %d times, want 1", c, n)
		}
	}
}

func TestCoordinatorOverHTTP(t *testing.T) {
	sweep := chaosSweep(10)
	dir := t.TempDir()
	st, err := campaign.Open(dir, chaosParams)
	if err != nil {
		t.Fatal(err)
	}
	co, err := coord.New("chaos", sweep, st, fastOpts(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.NewHTTPHandler(co))
	defer srv.Close()

	runner := newSlowRunner(time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &coord.Worker{
			ID:        fmt.Sprintf("http-w%d", i),
			Transport: &coord.HTTPTransport{Base: srv.URL},
			NewRunner: runnerFactory(runner),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(); err != nil {
				t.Errorf("worker %s: %v", w.ID, err)
			}
		}()
	}
	wg.Wait()

	ht := &coord.HTTPTransport{Base: srv.URL}
	status, err := ht.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !status.Complete() || status.Done != len(sweep.Cells) {
		t.Fatalf("campaign incomplete over HTTP: %+v", status)
	}
	assertStoresIdentical(t, referenceCells(t, sweep), readCells(t, dir))
}

// TestCheckpointRestartResume kills the coordinator mid-campaign (after a
// crash-faulted worker completed part of the sweep and one cell burned
// retries) and restarts it from its checkpoint and store: completion must be
// re-derived exactly (no completed cell recomputed) and retry accounting
// must survive.
func TestCheckpointRestartResume(t *testing.T) {
	sweep := chaosSweep(18)
	dir := t.TempDir()
	st, err := campaign.Open(dir, chaosParams)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts(t, dir, 1)
	co, err := coord.New("chaos", sweep, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	lb := coord.NewLoopback(co)

	runner := newSlowRunner(time.Millisecond)
	// One cell fails twice before succeeding, so the checkpoint has real
	// retry accounting to preserve.
	flaky := sweep.Cells[0].Key()
	runner.failN[flaky] = 2

	// Phase 1: a single worker that dies (kill -9 style) after 7 cells.
	w1 := &coord.Worker{
		ID: "phase1", Transport: lb, NewRunner: runnerFactory(runner),
		Hooks: coord.WorkerHooks{BeforeCell: func(n int, _ campaign.Cell) error {
			if n >= 7 {
				return coord.ErrKilled
			}
			return nil
		}},
	}
	if err := w1.Run(); err != coord.ErrKilled {
		t.Fatalf("phase-1 worker exited with %v, want ErrKilled", err)
	}
	phase1 := co.Status()
	if phase1.Done == 0 || phase1.Done == len(sweep.Cells) {
		t.Fatalf("phase 1 should end mid-campaign, done=%d", phase1.Done)
	}
	doneKeys := make(map[string]bool)
	for _, c := range sweep.Cells {
		if st.Has(c) {
			doneKeys[c.Key()] = true
		}
	}

	// Kill the coordinator: drop it and restart from checkpoint + store.
	lb.Swap(nil)
	st2, err := campaign.Open(dir, chaosParams)
	if err != nil {
		t.Fatal(err)
	}
	co2, err := coord.New("chaos", sweep, st2, opts)
	if err != nil {
		t.Fatal(err)
	}
	resumed := co2.Status()
	if resumed.Done != phase1.Done {
		t.Fatalf("restarted coordinator sees %d done, phase 1 ended at %d", resumed.Done, phase1.Done)
	}
	if resumed.Retries == 0 {
		t.Fatal("restarted coordinator lost its retry accounting")
	}
	lb.Swap(co2)

	// Phase 2: a healthy worker finishes the campaign.
	w2 := &coord.Worker{ID: "phase2", Transport: lb, NewRunner: runnerFactory(runner)}
	if err := w2.Run(); err != nil {
		t.Fatal(err)
	}
	final := co2.Status()
	if !final.Complete() || final.Done != len(sweep.Cells) || final.Exhausted != 0 {
		t.Fatalf("campaign did not complete after restart: %+v", final)
	}
	assertStoresIdentical(t, referenceCells(t, sweep), readCells(t, dir))
	// Resumes exactly where it left off: nothing completed before the
	// restart was recomputed after it.
	for key := range doneKeys {
		want := 1
		if key == flaky {
			want = 3 // two injected failures + the success
		}
		if n := runner.count(key); n != want {
			t.Errorf("cell %s computed %d times across the restart, want %d", key, n, want)
		}
	}
}

// TestExhaustedCellsReportedMissing drives one cell past its retry budget
// and checks the campaign still completes, reporting the hole explicitly
// everywhere: status, worker exit, and Missing().
func TestExhaustedCellsReportedMissing(t *testing.T) {
	sweep := chaosSweep(8)
	dir := t.TempDir()
	st, err := campaign.Open(dir, chaosParams)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts(t, dir, 1)
	opts.RetryBudget = 2
	co, err := coord.New("chaos", sweep, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	lb := coord.NewLoopback(co)

	runner := newSlowRunner(time.Millisecond)
	poisoned := sweep.Cells[3].Key()
	runner.failN[poisoned] = 1 << 30 // never succeeds

	w := &coord.Worker{ID: "w0", Transport: lb, NewRunner: runnerFactory(runner)}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Missing != 1 {
		t.Fatalf("worker saw %d missing cells, want 1", w.Missing)
	}
	status := co.Status()
	if !status.Complete() || status.Exhausted != 1 || status.Done != len(sweep.Cells)-1 {
		t.Fatalf("status = %+v, want 1 exhausted", status)
	}
	if len(status.MissingKeys) != 1 || status.MissingKeys[0] != poisoned {
		t.Fatalf("missing keys = %v, want [%s]", status.MissingKeys, poisoned)
	}
	missing := co.Missing()
	if len(missing) != 1 || missing[0].Key() != poisoned {
		t.Fatalf("Missing() = %v, want the poisoned cell", missing)
	}
	if n := runner.count(poisoned); n != 2 {
		t.Errorf("poisoned cell computed %d times, want the retry budget of 2", n)
	}
}

// TestDrainStopsLeasing checks graceful degradation: after Drain, workers
// are told the campaign is over, in-flight completions are still accepted,
// and the missing set is explicit.
func TestDrainStopsLeasing(t *testing.T) {
	sweep := chaosSweep(12)
	dir := t.TempDir()
	st, err := campaign.Open(dir, chaosParams)
	if err != nil {
		t.Fatal(err)
	}
	co, err := coord.New("chaos", sweep, st, fastOpts(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}

	// Take one lease by hand, then drain.
	resp := co.Lease(coord.LeaseRequest{Worker: "hand"})
	if resp.State != coord.StateLease {
		t.Fatalf("lease state %q", resp.State)
	}
	co.Drain()
	if r := co.Lease(coord.LeaseRequest{Worker: "late"}); r.State != coord.StateDone {
		t.Fatalf("draining coordinator answered %q, want done", r.State)
	}
	// The in-flight lease still lands.
	g := resp.Grant
	cr := campaign.CellResult{Key: g.Cell.Key(), Cell: g.Cell, Result: chaosResult(g.Cell)}
	done := co.Complete(coord.CompleteRequest{
		Worker: "hand", LeaseID: g.LeaseID,
		Cells: []campaign.CellResult{cr}, Sum: coord.PayloadSum([]campaign.CellResult{cr}),
	})
	if !done.OK {
		t.Fatalf("drain rejected an in-flight completion: %s", done.Reason)
	}
	co.WaitIdle(200 * time.Millisecond)
	status := co.Status()
	if status.Done != 1 || len(co.Missing()) != len(sweep.Cells)-1 {
		t.Fatalf("after drain: %+v, missing %d", status, len(co.Missing()))
	}
}

// TestCompleteRejectsCorruptPayloads covers the integrity seams one by one.
func TestCompleteRejectsCorruptPayloads(t *testing.T) {
	sweep := chaosSweep(4)
	dir := t.TempDir()
	st, err := campaign.Open(dir, chaosParams)
	if err != nil {
		t.Fatal(err)
	}
	co, err := coord.New("chaos", sweep, st, fastOpts(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	resp := co.Lease(coord.LeaseRequest{Worker: "w"})
	g := resp.Grant
	cell := g.Cell
	good := campaign.CellResult{Key: cell.Key(), Cell: cell, Result: chaosResult(cell)}

	// Digest mismatch (bit rot in flight).
	bad := good
	bad.Result.Throughput += 1
	if r := co.Complete(coord.CompleteRequest{
		Worker: "w", LeaseID: g.LeaseID,
		Cells: []campaign.CellResult{bad}, Sum: coord.PayloadSum([]campaign.CellResult{good}),
	}); r.OK {
		t.Fatal("corrupted payload accepted")
	}
	// Key mismatch (hand-edited payload).
	wrongKey := good
	wrongKey.Key = "0000000000000000"
	if r := co.Complete(coord.CompleteRequest{
		Worker: "w", LeaseID: g.LeaseID,
		Cells: []campaign.CellResult{wrongKey}, Sum: coord.PayloadSum([]campaign.CellResult{wrongKey}),
	}); r.OK {
		t.Fatal("mismatched cell key accepted")
	}
	// Foreign cell (wrong campaign).
	foreign := campaign.Cell{Cfg: config.Baseline(), WID: "bench:foreign", Pol: "BASE"}
	fr := campaign.CellResult{Key: foreign.Key(), Cell: foreign, Result: chaosResult(foreign)}
	if r := co.Complete(coord.CompleteRequest{
		Worker: "w", LeaseID: g.LeaseID,
		Cells: []campaign.CellResult{fr}, Sum: coord.PayloadSum([]campaign.CellResult{fr}),
	}); r.OK {
		t.Fatal("foreign cell accepted")
	}
	if st.Has(cell) || st.Has(foreign) {
		t.Fatal("a rejected payload reached the store")
	}
	// The clean payload still lands.
	if r := co.Complete(coord.CompleteRequest{
		Worker: "w", LeaseID: g.LeaseID,
		Cells: []campaign.CellResult{good}, Sum: coord.PayloadSum([]campaign.CellResult{good}),
	}); !r.OK {
		t.Fatalf("clean payload rejected: %s", r.Reason)
	}
}

// TestCompleteRefusesUnrenderableResult: a result renders cannot read (here
// one with no IPCs, as a hand-edited cell file might hold) is refused under
// a correct digest and writes nothing. A worker whose completion is refused
// fails its lease, and the cell is retried.
func TestCompleteRefusesUnrenderableResult(t *testing.T) {
	sweep := chaosSweep(1)
	dir := t.TempDir()
	st, err := campaign.Open(dir, chaosParams)
	if err != nil {
		t.Fatal(err)
	}
	co, err := coord.New("chaos", sweep, st, fastOpts(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	g := co.Lease(coord.LeaseRequest{Worker: "w"}).Grant
	bad := campaign.CellResult{Key: g.Cell.Key(), Cell: g.Cell, Result: chaosResult(g.Cell)}
	bad.Result.IPCs = []float64{}
	cells := []campaign.CellResult{bad}
	r := co.Complete(coord.CompleteRequest{Worker: "w", LeaseID: g.LeaseID, Cells: cells, Sum: coord.PayloadSum(cells)})
	if r.OK || r.Reason == "" {
		t.Fatalf("unrenderable result: response %+v, want a refusal with a reason", r)
	}
	if got := readCells(t, dir); len(got) != 0 {
		t.Fatalf("a refused completion wrote %d cell files", len(got))
	}
	if s := co.Status(); s.Done != 0 {
		t.Fatalf("a refused completion counted as done: %+v", s)
	}

	dir = t.TempDir()
	if st, err = campaign.Open(dir, chaosParams); err != nil {
		t.Fatal(err)
	}
	if co, err = coord.New("chaos", sweep, st, fastOpts(t, dir, 1)); err != nil {
		t.Fatal(err)
	}
	w := &coord.Worker{ID: "w", Transport: coord.NewLoopback(co), NewRunner: runnerFactory(&badOnceRunner{})}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if s := co.Status(); !s.Complete() || s.Done != 1 || s.Retries != 1 {
		t.Fatalf("after one refused completion: %+v, want the cell done after 1 retry", s)
	}
	assertStoresIdentical(t, referenceCells(t, sweep), readCells(t, dir))
}

// badOnceRunner returns a result with no IPCs for its first cell, then
// chaosResult.
type badOnceRunner struct{ calls int }

func (r *badOnceRunner) RunCell(c campaign.Cell) (sim.Result, error) {
	r.calls++
	res := chaosResult(c)
	if r.calls == 1 {
		res.IPCs = nil
	}
	return res, nil
}

// TestExactBackedSampledCellsStartDone: renders prefer exact, so a sampled
// cell whose exact counterpart is stored needs no lease. A coordinator over
// a sampled sweep with all but one exact cell stored leases only that one
// cell, and a coordinator over a store holding every exact cell starts
// complete.
func TestExactBackedSampledCellsStartDone(t *testing.T) {
	exact := chaosSweep(6)
	sampled := campaign.Sweep{Name: "chaos-sampled"}
	for _, c := range exact.Cells {
		c = c.Sampled()
		c.Cfg.Sampling = sample.DeriveAdaptive(chaosParams.Warmup, chaosParams.Measure).Config()
		sampled.Cells = append(sampled.Cells, c)
	}
	dir := t.TempDir()
	st, err := campaign.Open(dir, chaosParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range exact.Cells[1:] {
		if err := st.Put(c, chaosResult(c)); err != nil {
			t.Fatal(err)
		}
	}

	co, err := coord.New("chaos", sampled, st, fastOpts(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s := co.Status(); s.Done != len(exact.Cells)-1 {
		t.Fatalf("sampled campaign over %d stored exact cells starts with %d done", len(exact.Cells)-1, s.Done)
	}
	runner := newSlowRunner(0)
	w := &coord.Worker{ID: "w0", Transport: coord.NewLoopback(co), NewRunner: runnerFactory(runner)}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Cells != 1 || runner.count(sampled.Cells[0].Key()) != 1 {
		t.Errorf("worker computed %d cells, want only the sampled cell without a stored exact result", w.Cells)
	}

	if err := st.Put(exact.Cells[0], chaosResult(exact.Cells[0])); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "cells", sampled.Cells[0].Key()+".json")); err != nil {
		t.Fatal(err)
	}
	co, err = coord.New("chaos", sampled, st, fastOpts(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s := co.Status(); !s.Complete() || s.Done != len(sampled.Cells) {
		t.Errorf("sampled campaign over a store holding every exact cell starts at %+v, want complete", s)
	}
	if r := co.Lease(coord.LeaseRequest{Worker: "w1"}); r.State != coord.StateDone {
		t.Errorf("lease request answered %q, want %q", r.State, coord.StateDone)
	}
}
