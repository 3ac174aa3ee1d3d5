package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/coord"
)

// sweepSuite builds a suite with very small windows: the sweep tests assert
// enumeration identities and bit-identical recombination, not metric
// quality, so the cells only need to run, not converge.
func sweepSuite() *Suite {
	s := NewQuickSuite()
	s.Runner.Warmup, s.Runner.Measure = 1_000, 4_000
	return s
}

// TestSweepRenderParity: for every experiment, the cells demanded by the
// render path must be exactly the declared sweep's cells — no silent serial
// fallback (a rendered cell missing from the sweep would be computed
// on-demand and escape prefetch and the coordinator), and no dead sweep
// points (a declared cell no render consumes would burn worker time for
// nothing).
func TestSweepRenderParity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Key, func(t *testing.T) {
			s := sweepSuite()
			if _, err := spec.Render(s); err != nil {
				t.Fatal(err)
			}
			assertCellParity(t, spec.Sweep(), s)
		})
	}
}

// TestSweepRenderParitySubset: Figure 2 and Table 3 accept benchmark
// subsets; their parameterised sweeps must stay in lockstep with the
// parameterised render.
func TestSweepRenderParitySubset(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	benches := []string{"gzip", "swim"}
	s := sweepSuite()
	if _, err := Figure2(s, benches); err != nil {
		t.Fatal(err)
	}
	assertCellParity(t, Figure2Sweep(benches), s)

	s = sweepSuite()
	if _, err := Table3(s, benches); err != nil {
		t.Fatal(err)
	}
	assertCellParity(t, Table3Sweep(benches), s)
}

func assertCellParity(t *testing.T, sweep campaign.Sweep, s *Suite) {
	t.Helper()
	declared := sweep.CellSet()
	requested := s.RequestedCells()
	for c := range requested {
		if _, ok := declared[c]; !ok {
			t.Errorf("render demanded %s which the sweep does not declare (serial fallback)", c)
		}
	}
	for c := range declared {
		if _, ok := requested[c]; !ok {
			t.Errorf("sweep declares %s which no render consumed", c)
		}
	}
	if t.Failed() {
		t.Logf("sweep %s: %d declared, %d requested", sweep.Name, len(declared), len(requested))
	}
}

// TestCoordinatedStoreMatchesInProcess proves the campaign contract end to
// end: a coordinator leasing a figure's sweep to three workers, each
// running its own suite (as separate hosts would), fills a store whose
// render is byte-identical to a single-process run — and the store-backed
// render resimulates nothing.
func TestCoordinatedStoreMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	spec, err := SpecByKey("tab5")
	if err != nil {
		t.Fatal(err)
	}
	sweep := spec.Sweep()

	// Single-process reference run.
	ref := sweepSuite()
	refTables, err := spec.Render(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Coordinated run: workers share nothing but the coordinator, and learn
	// the measurement protocol from their lease grants.
	rendered := sweepSuite()
	store, err := campaign.Open(t.TempDir(), rendered.StoreParams())
	if err != nil {
		t.Fatal(err)
	}
	co, err := coord.New(spec.Key, sweep, store, coord.Options{
		RangeSize: 2,
		// A worker's heartbeat sleeps LeaseTTL/3 before the worker can
		// move on, so a short TTL keeps the test fast.
		LeaseTTL:     300 * time.Millisecond,
		PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	lb := coord.NewLoopback(co)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		w := &coord.Worker{
			ID:        fmt.Sprintf("w%d", i),
			Transport: lb,
			NewRunner: func(p campaign.Params) (campaign.Runner, error) {
				s := sweepSuite()
				s.Runner.Warmup, s.Runner.Measure, s.Runner.Seed = p.Warmup, p.Measure, p.Seed
				return s, nil
			},
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
	if st := co.Status(); !st.Complete() || st.Done != len(sweep.Cells) {
		t.Fatalf("coordinated campaign incomplete: %+v", st)
	}

	// Render from the store with a fresh suite.
	rendered.Store = store
	renderedTables, err := spec.Render(rendered)
	if err != nil {
		t.Fatal(err)
	}
	if len(renderedTables) != len(refTables) {
		t.Fatalf("store-backed render has %d tables, reference %d", len(renderedTables), len(refTables))
	}
	for i := range refTables {
		want := refTables[i].Table.String()
		got := renderedTables[i].Table.String()
		if got != want {
			t.Errorf("table %s differs between coordinated-store and single-process render:\n--- coordinated\n%s--- in-process\n%s",
				refTables[i].Name, got, want)
		}
	}
	if n := rendered.Simulated(); n != 0 {
		t.Errorf("store-backed render simulated %d cells, want 0", n)
	}
	if n := rendered.StoreHits(); n != int64(len(sweep.Cells)) {
		t.Errorf("store-backed render hit the store %d times, want %d", n, len(sweep.Cells))
	}
}

// TestSpecKeysUniqueAndResolvable guards the CLI contract.
func TestSpecKeysUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range Specs() {
		if spec.Key == "" || spec.Title == "" || spec.Sweep == nil || spec.Render == nil {
			t.Fatalf("spec %+v is incomplete", spec)
		}
		if seen[spec.Key] {
			t.Fatalf("duplicate spec key %q", spec.Key)
		}
		seen[spec.Key] = true
		got, err := SpecByKey(spec.Key)
		if err != nil || got.Key != spec.Key {
			t.Fatalf("SpecByKey(%q) = %v, %v", spec.Key, got.Key, err)
		}
		if spec.Sweep().Name != spec.Key {
			t.Fatalf("spec %q declares sweep named %q", spec.Key, spec.Sweep().Name)
		}
	}
	if _, err := SpecByKey("nope"); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("SpecByKey(nope) = %v", err)
	}
}
