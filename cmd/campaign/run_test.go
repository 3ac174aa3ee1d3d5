package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// failOnce fails the first cell it is asked for, then delegates.
type failOnce struct {
	once sync.Once
	next campaign.Runner
}

func (f *failOnce) RunCell(c campaign.Cell) (sim.Result, error) {
	failed := false
	f.once.Do(func() { failed = true })
	if failed {
		return sim.Result{}, errors.New("injected failure")
	}
	return f.next.RunCell(c)
}

// TestRunAfterRetryStartsOtherSweep: a campaign with a retry leaves a
// coordinator checkpoint behind, and a run of another sweep on the same
// store — another experiment, or the same one sampled — still starts.
func TestRunAfterRetryStartsOtherSweep(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	store := filepath.Join(t.TempDir(), "store")
	w := &coord.Worker{
		ID:        "flaky",
		Transport: &coord.HTTPTransport{Base: "http://" + addr},
		NewRunner: func(p campaign.Params) (campaign.Runner, error) {
			return &failOnce{next: workerSuite(p)}, nil
		},
	}
	workerErr := make(chan error, 1)
	go func() { workerErr <- w.Run() }()
	stdout, stderr := mustRun(t, "-exp", "tab5", "-store", store, "-addr", addr, "-backoff", "1ms")
	if err := <-workerErr; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if !strings.Contains(stdout, "(12 computed, 0 already stored, 1 retries)") {
		t.Fatalf("campaign with one failed cell:\nstdout:\n%s\nstderr:\n%s", stdout, stderr)
	}
	if ck, _ := filepath.Glob(filepath.Join(store, "coordinator*.json")); len(ck) != 1 {
		t.Fatalf("checkpoints after the retry: %v, want one", ck)
	}

	mustRun(t, "-exp", "tab3", "-store", store)
	mustRun(t, "-exp", "tab5", "-store", store, "-sampled")
}
