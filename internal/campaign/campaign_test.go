package campaign

import (
	"os"
	"path/filepath"
	"testing"

	"dcra/internal/config"
	"dcra/internal/sim"
	"dcra/internal/stats"
	"dcra/internal/workload"
)

func cellFor(t *testing.T, pol string) Cell {
	t.Helper()
	return Cell{Cfg: config.Baseline(), WID: "MEM2.g1", Pol: pol}
}

func TestCellKeyStable(t *testing.T) {
	a := cellFor(t, "DCRA")
	b := cellFor(t, "DCRA")
	if a.Key() != b.Key() {
		t.Fatalf("identical cells disagree on key: %s vs %s", a.Key(), b.Key())
	}
	if len(a.Key()) != 16 {
		t.Fatalf("key %q is not 16 hex chars", a.Key())
	}
	c := cellFor(t, "ICOUNT")
	if a.Key() == c.Key() {
		t.Fatal("different policies share a key")
	}
	d := a
	d.Cfg.MemLatency = 500
	if a.Key() == d.Key() {
		t.Fatal("different configurations share a key")
	}
}

func testSweep(n int) Sweep {
	s := Sweep{Name: "test"}
	cfg := config.Baseline()
	for _, w := range workload.All() {
		if len(s.Cells) >= n {
			break
		}
		s.Cells = append(s.Cells, Cell{Cfg: cfg, WID: w.ID(), Pol: "DCRA"})
	}
	return s
}

func TestSweepHashOrderIndependent(t *testing.T) {
	a := testSweep(5)
	b := Sweep{Name: a.Name}
	for i := len(a.Cells) - 1; i >= 0; i-- {
		b.Cells = append(b.Cells, a.Cells[i])
	}
	if a.Hash() != b.Hash() {
		t.Fatal("sweep hash depends on enumeration order")
	}
	c := testSweep(4)
	if a.Hash() == c.Hash() {
		t.Fatal("different sweeps share a hash")
	}
}

// fakeResult builds a result with awkward floats to prove the store
// round-trips bit-identically.
func fakeResult(seed float64) sim.Result {
	st := stats.New(2)
	st.Cycles = 300_000
	st.Threads[0].Committed = 123_456
	st.Threads[1].L2DMisses = 789
	st.MLPSum, st.MLPCycles = 1_000_003, 7
	return sim.Result{
		Workload:   workload.Workload{Threads: 2, Kind: workload.MEM, Group: 1, Names: []string{"mcf", "twolf"}},
		Policy:     "DCRA",
		Stats:      st,
		IPCs:       []float64{seed / 3.0, seed / 7.0},
		Throughput: seed/3.0 + seed/7.0,
		Hmean:      2 / (3.0/seed + 7.0/seed),
		WSpeedup:   seed * 0.1234567890123457,
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	params := Params{Warmup: 50_000, Measure: 300_000, Seed: 42}
	st, err := Open(dir, params)
	if err != nil {
		t.Fatal(err)
	}
	c := cellFor(t, "DCRA")
	if _, ok, err := st.Get(c); err != nil || ok {
		t.Fatalf("empty store Get = ok %v, err %v", ok, err)
	}
	want := fakeResult(1.0 / 3.0)
	if err := st.Put(c, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(c)
	if err != nil || !ok {
		t.Fatalf("Get after Put = ok %v, err %v", ok, err)
	}
	if got.Throughput != want.Throughput || got.Hmean != want.Hmean || got.WSpeedup != want.WSpeedup {
		t.Fatalf("floats did not round-trip bit-identically: %+v vs %+v", got, want)
	}
	for i := range want.IPCs {
		if got.IPCs[i] != want.IPCs[i] {
			t.Fatalf("IPC[%d] %v != %v", i, got.IPCs[i], want.IPCs[i])
		}
	}
	if got.Stats.Cycles != want.Stats.Cycles || got.Stats.MLPSum != want.Stats.MLPSum ||
		len(got.Stats.Threads) != len(want.Stats.Threads) ||
		got.Stats.Threads[0] != want.Stats.Threads[0] || got.Stats.Threads[1] != want.Stats.Threads[1] {
		t.Fatal("stats did not round-trip")
	}
	if got.Workload.ID() != want.Workload.ID() {
		t.Fatalf("workload %s != %s", got.Workload.ID(), want.Workload.ID())
	}

	// Reopening with the same protocol works; a different protocol refuses.
	if _, err := Open(dir, params); err != nil {
		t.Fatalf("reopen with same params: %v", err)
	}
	bad := params
	bad.Measure = 1
	if _, err := Open(dir, bad); err == nil {
		t.Fatal("store accepted a different measurement protocol")
	}
	adopted, err := OpenExisting(dir)
	if err != nil {
		t.Fatal(err)
	}
	if adopted.Params() != params {
		t.Fatalf("OpenExisting adopted %+v, want %+v", adopted.Params(), params)
	}
}

func TestStoreDoSingleFlightAndPersistence(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Params{Warmup: 1, Measure: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := cellFor(t, "DCRA")
	computes := 0
	want := fakeResult(0.7)
	for i := 0; i < 3; i++ {
		_, computed, err := st.Do(c, func() (sim.Result, error) {
			computes++
			return want, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if computed != (i == 0) {
			t.Fatalf("call %d: computed = %v", i, computed)
		}
	}
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	// A fresh store over the same directory serves the cell from disk.
	st2, err := Open(dir, Params{Warmup: 1, Measure: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, computed, err := st2.Do(c, func() (sim.Result, error) {
		t.Fatal("cell resimulated despite being on disk")
		return sim.Result{}, nil
	})
	if err != nil || computed {
		t.Fatalf("Do on fresh store: computed %v, err %v", computed, err)
	}
	if got.Throughput != want.Throughput {
		t.Fatal("persisted result differs")
	}
}

func TestStoreGetQuarantinesCorruptCells(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Params{})
	if err != nil {
		t.Fatal(err)
	}
	a := cellFor(t, "DCRA")
	b := cellFor(t, "ICOUNT")
	if err := st.Put(a, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	// Simulate a corrupted store: cell file under b's key holds a's content.
	data, err := os.ReadFile(filepath.Join(dir, "cells", a.Key()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cells", b.Key()+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(b); err != nil || ok {
		t.Fatalf("Get on mismatched cell file: ok=%v err=%v, want quarantined miss", ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cells", b.Key()+".corrupt")); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if st.Has(b) {
		t.Fatal("Has still sees the quarantined cell")
	}

	// A truncated cell file is likewise quarantined as a miss.
	if err := os.WriteFile(filepath.Join(dir, "cells", a.Key()+".json"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(a); err != nil || ok {
		t.Fatalf("Get on truncated cell file: ok=%v err=%v, want quarantined miss", ok, err)
	}
	if got := st.Quarantined(); got != 2 {
		t.Fatalf("Quarantined() = %d, want 2", got)
	}

	// A fresh Put heals the slot: the quarantined twin no longer shadows it.
	if err := st.Put(a, fakeResult(2)); err != nil {
		t.Fatal(err)
	}
	if r, ok, err := st.Get(a); err != nil || !ok || r.Throughput != fakeResult(2).Throughput {
		t.Fatalf("healed slot: ok=%v err=%v r=%+v", ok, err, r)
	}
}

func TestStoreGC(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Params{Warmup: 1, Measure: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	live := cellFor(t, "DCRA")
	stale := cellFor(t, "ICOUNT")
	if err := st.Put(live, fakeResult(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(stale, fakeResult(0.25)); err != nil {
		t.Fatal(err)
	}
	keep := map[string]bool{live.Key(): true}

	// Dry run reports without deleting.
	removed, err := st.GC(keep, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != stale.Key() {
		t.Fatalf("dry-run GC = %v, want [%s]", removed, stale.Key())
	}
	if !st.Has(stale) {
		t.Fatal("dry-run GC deleted a cell")
	}

	removed, err = st.GC(keep, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != stale.Key() {
		t.Fatalf("GC = %v, want [%s]", removed, stale.Key())
	}
	if st.Has(stale) {
		t.Fatal("GC left the stale cell behind")
	}
	if !st.Has(live) {
		t.Fatal("GC deleted a live cell")
	}
	// Temp files and the manifest are untouched; a second GC is a no-op.
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("manifest gone after GC: %v", err)
	}
	removed, err = st.GC(keep, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("second GC removed %v", removed)
	}
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != live.Key() {
		t.Fatalf("Keys = %v, want [%s]", keys, live.Key())
	}
}
