package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcra/internal/experiments"
)

func baseRecord() Record {
	return Record{
		GOMAXPROCS:        1,
		Workers:           1,
		NsPerCycle:        100,
		Figure5Seconds:    10,
		Figure5AllocBytes: 1 << 20,
		Figure5Allocs:     10_000,
		SampledSeconds:    2,
		SampledSpeedup:    5,
		DetailedFraction:  0.25,
		VsICount:          8.5,
		Parity:            experiments.ParityStats{Cells: 12, WithinCI: 12, AllWithin: true},
	}
}

func deltaByName(t *testing.T, deltas []MetricDelta, name string) MetricDelta {
	t.Helper()
	for _, d := range deltas {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no delta named %q in %+v", name, deltas)
	return MetricDelta{}
}

func TestDiffRecordsNoChange(t *testing.T) {
	deltas, regressed := diffRecords(baseRecord(), baseRecord(), 0.10)
	if regressed {
		t.Fatalf("identical records flagged as regression: %+v", deltas)
	}
	if len(deltas) != 8 {
		t.Fatalf("expected 8 metric deltas, got %d", len(deltas))
	}
	for _, d := range deltas {
		if d.Pct != 0 || d.Regressed {
			t.Errorf("delta %s: pct %v regressed %v", d.Name, d.Pct, d.Regressed)
		}
	}
}

func TestDiffRecordsSlowdownRegresses(t *testing.T) {
	old, rec := baseRecord(), baseRecord()
	rec.NsPerCycle = 120 // +20% past the 10% threshold
	deltas, regressed := diffRecords(old, rec, 0.10)
	if !regressed {
		t.Fatal("20% ns/cycle slowdown not flagged")
	}
	d := deltaByName(t, deltas, "ns_per_cycle")
	if !d.Regressed || math.Abs(d.Pct-20) > 1e-9 {
		t.Errorf("ns_per_cycle delta = %+v", d)
	}
	// Other metrics stay clean.
	if deltaByName(t, deltas, "figure5_quick_seconds").Regressed {
		t.Error("unchanged metric flagged")
	}
}

func TestDiffRecordsWithinThreshold(t *testing.T) {
	old, rec := baseRecord(), baseRecord()
	rec.NsPerCycle = 105     // +5%, inside the threshold
	rec.SampledSpeedup = 4.8 // -4%, inside the threshold (higher-better)
	rec.Figure5Seconds = 9   // improvement, never a regression
	if deltas, regressed := diffRecords(old, rec, 0.10); regressed {
		t.Fatalf("within-threshold moves flagged: %+v", deltas)
	}
}

func TestDiffRecordsHigherBetterRegresses(t *testing.T) {
	old, rec := baseRecord(), baseRecord()
	rec.SampledSpeedup = 4 // -20% on a higher-is-better metric
	deltas, regressed := diffRecords(old, rec, 0.10)
	if !regressed || !deltaByName(t, deltas, "figure5_sampled_speedup").Regressed {
		t.Fatalf("speedup collapse not flagged: %+v", deltas)
	}
}

func TestDiffRecordsParityHardGate(t *testing.T) {
	old, rec := baseRecord(), baseRecord()
	rec.Parity.WithinCI = 11
	rec.Parity.AllWithin = false
	deltas, regressed := diffRecords(old, rec, 0.10)
	if !regressed {
		t.Fatal("parity true->false not flagged")
	}
	if !deltaByName(t, deltas, "fig5_sampled_parity.all_within").Regressed {
		t.Fatalf("parity delta missing regression mark: %+v", deltas)
	}

	// A record that never had parity (old.AllWithin false) adds no gate.
	old.Parity.AllWithin = false
	if _, regressed := diffRecords(old, rec, 0.10); regressed {
		t.Fatal("parity gate fired without a true baseline")
	}
}

func TestDiffRecordsZeroBaseline(t *testing.T) {
	old, rec := Record{}, baseRecord()
	deltas, regressed := diffRecords(old, rec, 0.10)
	if regressed {
		t.Fatalf("zero-baseline diff flagged: %+v", deltas)
	}
	if d := deltaByName(t, deltas, "ns_per_cycle"); !math.IsNaN(d.Pct) {
		t.Errorf("zero baseline should yield NaN pct, got %v", d.Pct)
	}
}

// writeRecord stores rec as a trajectory-point file and returns its path.
func writeRecord(t *testing.T, name string, rec Record) string {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunDiffExitCodes(t *testing.T) {
	slow := baseRecord()
	slow.NsPerCycle = 120
	oldPath := writeRecord(t, "old.json", baseRecord())
	for _, tc := range []struct {
		name string
		rec  Record
		code int
	}{
		{"unchanged", baseRecord(), 0},
		{"regressed", slow, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := runDiff(oldPath, writeRecord(t, "new.json", tc.rec), 0.10, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.name, code, tc.code, &stdout, &stderr)
		}
	}
}

// TestRunDiffRefusesDifferentShapes: BENCH_PR9.json ran one worker on
// GOMAXPROCS 1 and BENCH_PR14.json two on 2, so their wall-clock and
// allocation totals measure the worker count as much as the code. -diff
// must name both differing fields and exit 2 without printing deltas.
func TestRunDiffRefusesDifferentShapes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := runDiff("../../BENCH_PR9.json", "../../BENCH_PR14.json", 0.10, &stdout, &stderr)
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if stdout.Len() > 0 {
		t.Errorf("deltas printed for incomparable points:\n%s", &stdout)
	}
	for _, want := range []string{"gomaxprocs 1 vs 2", "workers 1 vs 2"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("refusal %q does not name %q", stderr.String(), want)
		}
	}
}
