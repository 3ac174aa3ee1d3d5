// benchjson -diff: compare two trajectory points and flag regressions, so
// CI and PR review can read "what moved" without eyeballing raw JSON.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// MetricDelta is one compared metric between two bench records.
type MetricDelta struct {
	Name string
	// Old and New are the metric values; Pct is (new-old)/old in percent
	// (NaN when old is zero).
	Old, New float64
	Pct      float64
	// LowerBetter orients the regression test; Regressed is set when the
	// metric moved the wrong way past the threshold.
	LowerBetter bool
	Regressed   bool
}

// diffRecords compares the perf-tracked metrics of two records. threshold is
// the relative change (e.g. 0.10) past which a wrong-direction move counts
// as a regression. Parity is a hard gate: all_within=true degrading to false
// is always a regression, no threshold.
func diffRecords(old, new Record, threshold float64) (deltas []MetricDelta, regressed bool) {
	add := func(name string, o, n float64, lowerBetter bool) {
		d := MetricDelta{Name: name, Old: o, New: n, LowerBetter: lowerBetter, Pct: math.NaN()}
		if o != 0 {
			d.Pct = 100 * (n - o) / o
			moved := (n - o) / o
			if lowerBetter && moved > threshold {
				d.Regressed = true
			}
			if !lowerBetter && moved < -threshold {
				d.Regressed = true
			}
		}
		regressed = regressed || d.Regressed
		deltas = append(deltas, d)
	}
	add("ns_per_cycle", old.NsPerCycle, new.NsPerCycle, true)
	add("figure5_quick_seconds", old.Figure5Seconds, new.Figure5Seconds, true)
	add("figure5_alloc_bytes", float64(old.Figure5AllocBytes), float64(new.Figure5AllocBytes), true)
	add("figure5_allocs", float64(old.Figure5Allocs), float64(new.Figure5Allocs), true)
	add("figure5_sampled_quick_seconds", old.SampledSeconds, new.SampledSeconds, true)
	add("figure5_sampled_speedup", old.SampledSpeedup, new.SampledSpeedup, false)
	add("sampled_detailed_cycle_fraction", old.DetailedFraction, new.DetailedFraction, true)
	add("fig5_hmean_vs_icount_pct", old.VsICount, new.VsICount, false)

	if old.Parity.AllWithin && !new.Parity.AllWithin {
		deltas = append(deltas, MetricDelta{Name: "fig5_sampled_parity.all_within", Old: 1, New: 0, Regressed: true})
		regressed = true
	}
	return deltas, regressed
}

// shapeMismatch names every machine-shape field on which two records
// differ, with both values. Wall-clock and allocation totals follow the
// worker count, so only same-shape points compare.
func shapeMismatch(old, new Record) []string {
	var diffs []string
	if old.GOMAXPROCS != new.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("gomaxprocs %d vs %d", old.GOMAXPROCS, new.GOMAXPROCS))
	}
	if old.Workers != new.Workers {
		diffs = append(diffs, fmt.Sprintf("workers %d vs %d", old.Workers, new.Workers))
	}
	return diffs
}

// runDiff is the -diff entry point: load both records, print the table and
// return the exit code: 1 on a regression or an unreadable record, 2 when
// the records were measured on different machine shapes.
func runDiff(oldPath, newPath string, threshold float64, stdout, stderr io.Writer) int {
	old, err := readRecord(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	rec, err := readRecord(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if diffs := shapeMismatch(old, rec); len(diffs) > 0 {
		fmt.Fprintf(stderr, "benchjson: %s and %s were measured on different machine shapes (%s); refusing to compare\n",
			oldPath, newPath, strings.Join(diffs, ", "))
		return 2
	}
	deltas, regressed := diffRecords(old, rec, threshold)
	fmt.Fprintf(stdout, "benchjson: %s -> %s (threshold %.0f%%)\n", oldPath, newPath, 100*threshold)
	for _, d := range deltas {
		mark := " "
		if d.Regressed {
			mark = "!"
		}
		pct := "n/a"
		if !math.IsNaN(d.Pct) {
			pct = fmt.Sprintf("%+.1f%%", d.Pct)
		}
		fmt.Fprintf(stdout, "%s %-34s %14.4g -> %-14.4g %s\n", mark, d.Name, d.Old, d.New, pct)
	}
	if regressed {
		fmt.Fprintln(stdout, "benchjson: REGRESSION (metrics marked '!')")
		return 1
	}
	fmt.Fprintln(stdout, "benchjson: no regressions")
	return 0
}

func readRecord(path string) (Record, error) {
	var rec Record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("parsing %s: %w", path, err)
	}
	return rec, nil
}
