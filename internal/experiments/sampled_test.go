package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/policy"
	"dcra/internal/sample"
	"dcra/internal/sim"
	"dcra/internal/stats"
	"dcra/internal/workload"
)

// sampledDeterminismSuite is determinismSuite in sampled execution mode,
// with the schedule stamped on exactly as `campaign run -sampled` does.
func sampledDeterminismSuite(workers int) *Suite {
	s := determinismSuite(workers)
	s.Mode = campaign.ModeSampled
	s.Sampling = sample.DeriveAdaptive(s.Runner.Warmup, s.Runner.Measure).Config()
	return s
}

// TestSampledDeterminism runs the same sampled cells on a serial engine, a
// parallel engine sharing the machine pool, and a pool-less runner, and
// requires bit-identical results — including every per-window throughput in
// the sampling summary. A second parallel suite then reruns the cells in
// reverse order on the first one's pool, whose stream checkpoint store the
// first pass filled, so its skims restore what other cells walked. Run
// under -race this also exercises the shared pool, the checkpoint store and
// the sampled baseline cache.
func TestSampledDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	cells := determinismCells()
	reversed := make([]campaign.Cell, len(cells))
	for i, c := range cells {
		reversed[len(cells)-1-i] = c
	}

	serial := sampledDeterminismSuite(1)
	parallel := sampledDeterminismSuite(8)
	fresh := sampledDeterminismSuite(8)
	fresh.Runner.Pool = nil
	for _, s := range []*Suite{serial, parallel, fresh} {
		if err := s.Prefetch(cells); err != nil {
			t.Fatal(err)
		}
	}
	refilled := sampledDeterminismSuite(8)
	refilled.Runner.Pool = parallel.Runner.Pool
	if err := refilled.Prefetch(reversed); err != nil {
		t.Fatal(err)
	}

	for _, c := range cells {
		c = serial.applyCellMode(c)
		rs, err := serial.RunCell(c)
		if err != nil {
			t.Fatal(err)
		}
		id := c.WID + "/" + c.Pol
		if rs.Sampled == nil {
			t.Fatalf("%s: sampled-mode cell carries no sampling summary", id)
		}
		for name, other := range map[string]*Suite{"parallel": parallel, "pool-less": fresh, "checkpoint-restoring": refilled} {
			ro, err := other.RunCell(c)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Throughput != ro.Throughput {
				t.Errorf("%s: throughput %v (serial) != %v (%s)", id, rs.Throughput, ro.Throughput, name)
			}
			if rs.Hmean != ro.Hmean || rs.WSpeedup != ro.WSpeedup {
				t.Errorf("%s: derived metrics differ from %s run", id, name)
			}
			if !reflect.DeepEqual(rs.Sampled, ro.Sampled) {
				t.Errorf("%s: sampling summaries differ between serial and %s:\n%+v\nvs\n%+v",
					id, name, rs.Sampled, ro.Sampled)
			}
			if !reflect.DeepEqual(rs.Stats, ro.Stats) {
				t.Errorf("%s: aggregate stats differ between serial and %s", id, name)
			}
		}
	}
}

// TestAdaptiveDeterminism checks where the variance-driven stopping rule
// lands: every cell retains between MinWindows and Windows windows, and a
// parallel engine that is handed the cells in reverse order retains the
// same window values as a serial engine handed them in order (the retained
// values ARE the observable; a data race or order dependence in the
// sequential stopping path would move them).
func TestAdaptiveDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	cells := determinismCells()
	reversed := make([]campaign.Cell, len(cells))
	for i, c := range cells {
		reversed[len(cells)-1-i] = c
	}

	serial := sampledDeterminismSuite(1)
	parallel := sampledDeterminismSuite(8)
	if err := serial.Prefetch(cells); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Prefetch(reversed); err != nil {
		t.Fatal(err)
	}

	want := make(map[string]sim.Result, len(cells))
	for _, c := range cells {
		c = serial.applyCellMode(c)
		r, err := serial.RunCell(c)
		if err != nil {
			t.Fatal(err)
		}
		id := c.WID + "/" + c.Pol
		if r.Sampled == nil {
			t.Fatalf("%s: sampled-mode cell carries no sampling summary", id)
		}
		p := r.Sampled.Params
		if k := len(r.Sampled.WindowThroughput); k < p.MinWindows || k > p.Windows {
			t.Errorf("%s: retained %d windows, outside [%d, %d]", id, k, p.MinWindows, p.Windows)
		}
		want[c.Key()] = r
	}
	for _, c := range reversed {
		c = parallel.applyCellMode(c)
		r, err := parallel.RunCell(c)
		if err != nil {
			t.Fatal(err)
		}
		w := want[c.Key()]
		if w.Throughput != r.Throughput || !reflect.DeepEqual(w.Sampled, r.Sampled) {
			t.Errorf("%s/%s: stopping rule landed differently in reverse order:\n%+v\nvs\n%+v",
				c.WID, c.Pol, w.Sampled, r.Sampled)
		}
	}
}

// adaptiveFingerprint runs a small adaptive cell subset and digests the
// exact float bits of every determinism-relevant observable: throughput,
// CI half-width, and each retained window value, per cell key.
func adaptiveFingerprint(t *testing.T) string {
	t.Helper()
	s := sampledDeterminismSuite(2)
	cells := determinismCells()[:6]
	h := sha256.New()
	for _, c := range cells {
		c = s.applyCellMode(c)
		r, err := s.RunCell(c)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %x %x %x\n", c.Key(),
			math.Float64bits(r.Throughput),
			math.Float64bits(r.Sampled.ThroughputCI),
			len(r.Sampled.WindowThroughput))
		for _, w := range r.Sampled.WindowThroughput {
			fmt.Fprintf(h, "%x\n", math.Float64bits(w))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAdaptiveCrossProcessDeterminism re-executes the test binary twice and
// compares adaptive fingerprints across the process boundary: the stopping
// rule must be a pure function of the seeded simulation, with no map-order,
// address or scheduling dependence leaking into where it stops.
func TestAdaptiveCrossProcessDeterminism(t *testing.T) {
	const env = "DCRA_ADAPTIVE_FP_CHILD"
	const marker = "adaptive-fp: "
	if os.Getenv(env) == "1" {
		fmt.Printf("%s%s\n", marker, adaptiveFingerprint(t))
		return
	}
	if testing.Short() {
		t.Skip("simulation test")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	want := adaptiveFingerprint(t)
	for i := 0; i < 2; i++ {
		cmd := exec.Command(exe, "-test.run", "^TestAdaptiveCrossProcessDeterminism$")
		cmd.Env = append(os.Environ(), env+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child %d: %v\n%s", i, err, out)
		}
		_, after, found := strings.Cut(string(out), marker)
		if !found {
			t.Fatalf("child %d printed no fingerprint:\n%s", i, out)
		}
		got, _, _ := strings.Cut(after, "\n")
		if got != want {
			t.Errorf("child %d fingerprint %s != in-process %s", i, got, want)
		}
	}
}

// TestAdaptiveStoreSeparation pins the content-key contract that lets
// exact and sampled results share one store with results of the retired
// fixed protocol: the three variants of a cell (exact, unstamped sampled —
// the fixed protocol's key — and stamped sampled) have pairwise distinct
// keys, writing the sampled variants never perturbs the stored exact
// result, and the fixed protocol's result is never served. No simulation —
// the results are fabricated; only keying and store lookups are under
// test.
func TestAdaptiveStoreSeparation(t *testing.T) {
	cfg := config.Baseline()
	w, err := workload.Get(2, workload.Kinds[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	exact := cellOf(cfg, w, policy.NameDCRA)
	fixed := exact.Sampled()
	stamped := sampledDeterminismSuite(1).applyCellMode(exact)
	if stamped.Mode != campaign.ModeSampled || !stamped.Cfg.Sampling.Enabled() {
		t.Fatalf("applyCellMode produced no stamped sampled cell: %+v", stamped)
	}
	keys := map[string]string{
		exact.Key():   "exact",
		fixed.Key():   "fixed-sampled",
		stamped.Key(): "stamped-sampled",
	}
	if len(keys) != 3 {
		t.Fatalf("cell variants collide on content keys: %v", keys)
	}
	for _, c := range []campaign.Cell{fixed, stamped} {
		if c.Exact() != exact {
			t.Errorf("%s: Exact() = %+v, want the exact cell", c, c.Exact())
		}
	}

	dir := t.TempDir()
	st, err := campaign.Open(dir, campaign.Params{Warmup: 5_000, Measure: 20_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Fabricated, but shaped as renders read a result, so Get serves it.
	fabricate := func(throughput float64) sim.Result {
		return sim.Result{Workload: w, Policy: policy.NameDCRA, Stats: stats.New(w.Threads),
			IPCs: make([]float64, w.Threads), Throughput: throughput}
	}
	exactResult := fabricate(2.5)
	if err := st.Put(exact, exactResult); err != nil {
		t.Fatal(err)
	}
	for _, c := range []campaign.Cell{fixed, stamped} {
		if _, err := os.Stat(filepath.Join(dir, "cells", c.Key()+".json")); err == nil {
			t.Errorf("%s: present in store before being written", c)
		}
		if err := st.Put(c, fabricate(9.9)); err != nil {
			t.Fatal(err)
		}
	}
	got, ok, err := st.Get(exact)
	if err != nil || !ok {
		t.Fatalf("exact cell lost after sampled writes: ok=%v err=%v", ok, err)
	}
	if got.Throughput != exactResult.Throughput {
		t.Errorf("exact cell overwritten: throughput %v, want %v", got.Throughput, exactResult.Throughput)
	}

	// The fixed protocol's stored result is never served: a sampled cell
	// without a schedule fails before the store is consulted.
	s := determinismSuite(1)
	s.Mode = campaign.ModeSampled
	s.Store = st
	if _, err := s.RunCell(fixed); err == nil || !strings.Contains(err.Error(), "no sampling schedule") {
		t.Fatalf("unstamped sampled cell: err = %v, want a missing-schedule error", err)
	}
	if s.StoreHits() != 0 || s.Simulated() != 0 {
		t.Errorf("refused cell still reached the store or the kernel: hits %d, simulated %d",
			s.StoreHits(), s.Simulated())
	}
}

// TestRunCellRejectsModeMismatch: RunCell refuses, before the kernel runs,
// a cell it cannot run as its key says. The runner picks a workload cell's
// protocol from cfg.Sampling alone, so a cell whose Mode names the other
// protocol, or no known one, is refused: an exact cell carrying a schedule
// would otherwise run sampled under an exact key. So is a "sched:" WID or a
// "CAP:" policy that no sweep enumerates: those resolve by lookup, never by
// parsing, so a cell cannot size a trial or a cap the experiments do not
// run. Both unenumerated shapes are small, so a regression that ran them
// could not allocate much.
func TestRunCellRejectsModeMismatch(t *testing.T) {
	w, err := workload.Get(2, workload.MEM, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact := cellOf(config.Baseline(), w, policy.NameDCRA)
	scheduled := sampledDeterminismSuite(1).applyCellMode(exact)
	scheduled.Mode = campaign.ModeExact
	unknown := exact
	unknown.Mode = "bogus"
	for _, tc := range []struct {
		name string
		cell campaign.Cell
		msg  string
	}{
		{"exact-with-schedule", scheduled, "carries a sampling schedule"},
		{"sampled-without-schedule", exact.Sampled(), "no sampling schedule"},
		{"unknown-mode", unknown, `unknown mode "bogus"`},
		{"unenumerated-sched-trial",
			campaign.Cell{Cfg: config.Baseline(), WID: "sched:c2:open:g3000:j16:b24000", Pol: "SYMB+DCRA"},
			"no sched trial"},
		{"off-grid-cap", benchCell(figure2Config(), "gzip", "CAP:intIQ:40"), "unknown single-thread policy"},
		{"uncapped-cap", benchCell(config.Baseline(), "gzip", "CAP"), "unknown single-thread policy"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := determinismSuite(1)
			if _, err := s.RunCell(tc.cell); err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("RunCell(%s): err = %v, want one mentioning %q", tc.cell, err, tc.msg)
			}
			if s.Simulated() != 0 {
				t.Errorf("refused cell was simulated")
			}
		})
	}
}

// TestSampledRenderPrefersStoredExact: a sampled suite with a stamped
// schedule renders from exact results already in its store — the "renders
// prefer exact when present" rule — without simulating anything.
func TestSampledRenderPrefersStoredExact(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	spec, err := SpecByKey("tab5")
	if err != nil {
		t.Fatal(err)
	}
	exact := sweepSuite()
	want, err := spec.Render(exact)
	if err != nil {
		t.Fatal(err)
	}
	st, err := campaign.Open(t.TempDir(), exact.StoreParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range spec.Sweep().Cells {
		r, err := exact.RunCell(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(c, r); err != nil {
			t.Fatal(err)
		}
	}

	sampled := sweepSuite()
	sampled.Mode = campaign.ModeSampled
	sampled.Sampling = sample.DeriveAdaptive(sampled.Runner.Warmup, sampled.Runner.Measure).Config()
	sampled.Store = st
	got, err := spec.Render(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if n := sampled.Simulated(); n != 0 {
		t.Errorf("sampled render simulated %d cells, want 0 (exact results are stored)", n)
	}
	if n := sampled.StoreHits(); n != int64(len(spec.Sweep().Cells)) {
		t.Errorf("sampled render hit the store %d times, want %d", n, len(spec.Sweep().Cells))
	}
	for i := range want {
		if g, w := got[i].Table.String(), want[i].Table.String(); g != w {
			t.Errorf("table %s: sampled render of stored exact cells differs:\n%s\nvs\n%s", want[i].Name, g, w)
		}
	}
}

// TestFigure5Parity is the SMARTS accuracy contract at the quick protocol
// perfbench and CI run: every Figure 5 cell's sampled throughput must land
// within its reported 99.7% confidence interval of the exact value. This is
// the most expensive test in the repo (a full exact plus a full sampled
// quick sweep); -short skips it.
func TestFigure5Parity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	exact := NewSuite()
	exact.Runner.Warmup, exact.Runner.Measure = 15_000, 60_000
	sampled := NewSuite()
	sampled.Runner.Warmup, sampled.Runner.Measure = 15_000, 60_000
	sampled.Mode = campaign.ModeSampled
	sampled.Sampling = sample.DeriveAdaptive(15_000, 60_000).Config()

	rows, st, err := Figure5Parity(exact, sampled)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != len(rows) || st.Cells == 0 {
		t.Fatalf("parity covered %d cells, rows %d", st.Cells, len(rows))
	}
	t.Logf("parity: %d/%d cells within CI, mean |err| %.4f IPC, max rel err %.2f%%",
		st.WithinCI, st.Cells, st.MeanAbsErr, st.MaxRelErrPct)
	for _, r := range rows {
		if !r.Within {
			t.Errorf("%s/%s: sampled %.4f outside exact %.4f +/- %.4f",
				r.Cell.WID, r.Cell.Pol, r.Sampled, r.Exact, r.CI)
		}
	}
	if !st.AllWithin {
		t.Errorf("parity: %d/%d cells within CI", st.WithinCI, st.Cells)
	}
	// Guard against the trivial pass where intervals are uselessly wide or
	// the estimates drift: mean |error| stays well under typical cell
	// throughput even while every cell clears its own interval.
	if st.MeanAbsErr > 0.5 {
		t.Errorf("mean |sampled - exact| = %.4f IPC, want <= 0.5", st.MeanAbsErr)
	}
}
