package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dcra/internal/campaign"
	"dcra/internal/coord"
	"dcra/internal/experiments"
	"dcra/internal/sim"
)

// The test protocol: windows small enough that tab5's 12 cells take well
// under a second, even under -race.
const testWarmup, testMeasure = 1_000, 4_000

// runCmd runs `campaign run` at the test protocol with args appended.
func runCmd(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	protocol := []string{"-warmup", fmt.Sprint(testWarmup), "-measure", fmt.Sprint(testMeasure)}
	o, err := parseRunFlags(append(protocol, args...), io.Discard)
	if err != nil {
		t.Fatalf("parsing %q: %v", args, err)
	}
	var out, errOut bytes.Buffer
	err = runCampaign(o, &out, &errOut)
	return out.String(), errOut.String(), err
}

// mustRun is runCmd for runs that must succeed.
func mustRun(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, err := runCmd(t, args...)
	if err != nil {
		t.Fatalf("campaign run %q: %v\nstderr:\n%s", args, err, stderr)
	}
	return stdout, stderr
}

// cellFiles lists a store's cell files.
func cellFiles(t *testing.T, store string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(store, "cells", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// tables strips a run's stdout down to its rendered tables.
func tables(stdout string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(stdout, "\n") {
		if !strings.HasPrefix(line, "campaign: ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

func assertSameFile(t *testing.T, want, got string) {
	t.Helper()
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, g) {
		t.Errorf("%s differs from %s:\n%s\nvs\n%s", got, want, g, w)
	}
}

// truncatedCopy copies the store at src and truncates the file of tab5's
// first cell to half its size, as a torn copy or a crashed disk leaves it.
func truncatedCopy(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "store")
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dst, "cells", experiments.Table5Sweep().Cells[0].Key()+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestRunMatchesInProcessRender: a local run's CSVs are byte-identical to
// an in-process render of the same protocol, its store holds the whole
// sweep, and a second run with -require-store leases nothing and renders
// the same tables.
func TestRunMatchesInProcessRender(t *testing.T) {
	spec, err := experiments.SpecByKey("tab5")
	if err != nil {
		t.Fatal(err)
	}
	s := experiments.NewSuite()
	s.Runner.Warmup, s.Runner.Measure = testWarmup, testMeasure
	rendered, err := spec.Render(s)
	if err != nil {
		t.Fatal(err)
	}
	ref := t.TempDir()
	refPaths, err := experiments.WriteCSVs(ref, rendered)
	if err != nil {
		t.Fatal(err)
	}

	store := filepath.Join(t.TempDir(), "store")
	first, _ := mustRun(t, "-exp", "tab5", "-store", store)
	for _, p := range refPaths {
		assertSameFile(t, p, filepath.Join(store, "csv", filepath.Base(p)))
	}
	st, err := campaign.OpenExisting(store)
	if err != nil {
		t.Fatal(err)
	}
	if present, missing := st.Count(spec.Sweep()); present != 12 || len(missing) > 0 {
		t.Errorf("store holds %d cells, %d missing; want 12/12", present, len(missing))
	}
	if !strings.Contains(first, "(12 computed, 0 already stored, 0 retries)") {
		t.Errorf("first run's summary:\n%s", first)
	}

	again, stderr := mustRun(t, "-exp", "tab5", "-store", store, "-require-store")
	if strings.Contains(stderr, "lease ") {
		t.Errorf("-require-store run over a full store leased cells:\n%s", stderr)
	}
	if !strings.Contains(again, "(0 computed, 12 already stored, 0 retries)") {
		t.Errorf("-require-store run's summary:\n%s", again)
	}
	if tables(again) != tables(first) {
		t.Errorf("store-backed tables differ:\n%s\nvs\n%s", tables(again), tables(first))
	}
}

// TestRunRequireStoreEmpty: -require-store over an empty store fails,
// naming every missing cell, and computes nothing; an experiment with no
// cells still renders.
func TestRunRequireStoreEmpty(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	_, stderr, err := runCmd(t, "-exp", "tab5", "-store", store, "-require-store")
	if err == nil || !strings.Contains(err.Error(), "lacks 12 of 12 cells") {
		t.Fatalf("err = %v, want a -require-store failure for 12 cells", err)
	}
	for _, c := range experiments.Table5Sweep().Cells {
		if !strings.Contains(stderr, "missing "+c.String()) {
			t.Errorf("stderr does not name missing cell %s:\n%s", c, stderr)
		}
	}
	if files := cellFiles(t, store); len(files) > 0 {
		t.Errorf("failed -require-store run wrote cell files %v", files)
	}
	if stdout, _ := mustRun(t, "-exp", "tab1", "-store", store, "-require-store"); !strings.Contains(stdout, "tab1: 0 cells rendered") {
		t.Errorf("tab1 run:\n%s", stdout)
	}
}

// TestRunRecomputesTruncatedCell: a cell file truncated to half its size
// counts as missing. -require-store refuses before any lease, naming the
// cell, and a plain run recomputes exactly that cell and writes the first
// run's CSV.
func TestRunRecomputesTruncatedCell(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	mustRun(t, "-exp", "tab5", "-store", store)
	cell := experiments.Table5Sweep().Cells[0]

	strict := truncatedCopy(t, store)
	_, stderr, err := runCmd(t, "-exp", "tab5", "-store", strict, "-require-store")
	if err == nil || !strings.Contains(err.Error(), "lacks 1 of 12 cells") {
		t.Errorf("err = %v, want a -require-store failure for 1 cell", err)
	}
	if !strings.Contains(stderr, "missing "+cell.String()) || strings.Contains(stderr, "lease ") {
		t.Errorf("-require-store run should name %s and lease nothing:\n%s", cell, stderr)
	}

	healed := truncatedCopy(t, store)
	stdout, _ := mustRun(t, "-exp", "tab5", "-store", healed)
	if !strings.Contains(stdout, "(1 computed, 11 already stored, 0 retries)") {
		t.Errorf("run over a truncated cell file:\n%s", stdout)
	}
	assertSameFile(t, filepath.Join(store, "csv", "table5.csv"), filepath.Join(healed, "csv", "table5.csv"))
}

// TestRunSampledPrefersStoredExact: a -sampled run over a store holding
// the exact cells computes nothing, writes no cell file and renders the
// exact run's tables.
func TestRunSampledPrefersStoredExact(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	exact, _ := mustRun(t, "-exp", "tab5", "-store", store)
	before := cellFiles(t, store)
	sampled, _ := mustRun(t, "-exp", "tab5", "-store", store, "-sampled", "-require-store")
	if after := cellFiles(t, store); len(after) != len(before) {
		t.Errorf("sampled run over exact cells wrote cell files: %d before, %d after", len(before), len(after))
	}
	if tables(sampled) != tables(exact) {
		t.Errorf("sampled tables over exact cells differ:\n%s\nvs\n%s", tables(sampled), tables(exact))
	}
}

// failCell fails every attempt at one cell and delegates the others.
type failCell struct {
	cell campaign.Cell
	next campaign.Runner
}

func (f failCell) RunCell(c campaign.Cell) (sim.Result, error) {
	if c == f.cell {
		return sim.Result{}, errors.New("injected failure")
	}
	return f.next.RunCell(c)
}

// storeEntries lists the names at the top of a store directory.
func storeEntries(t *testing.T, store string) []string {
	t.Helper()
	entries, err := os.ReadDir(store)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestRerunRetriesGivenUpCell: the store is a campaign's only durable
// state. An -addr run whose only worker always fails one tab5 cell gives
// up on it and fails, leaving only the manifest and the cells in the store;
// a plain re-run computes exactly that cell under a fresh retry budget and
// renders; and runs of other sweeps on the same store still start.
func TestRerunRetriesGivenUpCell(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	store := filepath.Join(t.TempDir(), "store")
	poisoned := experiments.Table5Sweep().Cells[3]
	w := &coord.Worker{
		ID:        "failing",
		Transport: &coord.HTTPTransport{Base: "http://" + addr},
		NewRunner: func(p campaign.Params) (campaign.Runner, error) {
			return failCell{cell: poisoned, next: workerSuite(p)}, nil
		},
	}
	workerErr := make(chan error, 1)
	go func() { workerErr <- w.Run() }()
	_, stderr, err := runCmd(t, "-exp", "tab5", "-store", store, "-addr", addr, "-backoff", "1ms")
	if err == nil || !strings.Contains(err.Error(), "1 of 12 cells missing") {
		t.Fatalf("run with one cell failing every attempt: err = %v, want 1 of 12 cells missing\nstderr:\n%s", err, stderr)
	}
	if err := <-workerErr; err != nil || w.Missing != 1 {
		t.Fatalf("worker: err %v, %d cells reported missing; want nil and 1", err, w.Missing)
	}
	if got := storeEntries(t, store); !slices.Equal(got, []string{"cells", "manifest.json"}) {
		t.Errorf("store after the failed run holds %v, want only cells and manifest.json", got)
	}

	stdout, stderr := mustRun(t, "-exp", "tab5", "-store", store)
	if !strings.Contains(stdout, "(1 computed, 11 already stored, 0 retries)") {
		t.Fatalf("re-run after a cell was given up on:\nstdout:\n%s\nstderr:\n%s", stdout, stderr)
	}
	if got := storeEntries(t, store); !slices.Equal(got, []string{"cells", "csv", "manifest.json"}) {
		t.Errorf("store after the re-run holds %v, want only cells, csv and manifest.json", got)
	}

	mustRun(t, "-exp", "tab3", "-store", store)
	mustRun(t, "-exp", "tab5", "-store", store, "-sampled")
}
