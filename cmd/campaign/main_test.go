package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcra/internal/campaign"
	"dcra/internal/coord"
	"dcra/internal/experiments"
	"dcra/internal/sample"
	"dcra/internal/sim"
)

// TestGCKeep checks gc's keep-set over every registered sweep, per
// measurement protocol: exact cells and cells sampled under the protocol's
// own schedule are live; a sampled cell without a schedule (the retired
// fixed protocol's key) or under another protocol's schedule is garbage,
// as is a cell no sweep enumerates.
func TestGCKeep(t *testing.T) {
	type keepCase struct {
		name string
		cell campaign.Cell
		keep bool
	}
	for _, p := range []campaign.Params{
		{Warmup: 15_000, Measure: 60_000, Seed: 1},
		{Warmup: 20_000, Measure: 80_000, Seed: 2},
		{Warmup: 5_000, Measure: 20_000, Seed: 3},
	} {
		stale := experiments.Figure5Sweep().Cells[0]
		stale.Cfg.MemLatency = 12_345
		cases := []keepCase{{"stale exact", stale, false}}
		stamp := sample.DeriveAdaptive(p.Warmup, p.Measure).Config()
		for _, sp := range experiments.Specs() {
			sweep := sp.Sweep()
			for _, c := range sweep.Cells {
				cases = append(cases, keepCase{sp.Key + " exact", c, true})
			}
			for _, c := range experiments.ApplyModeSampling(sweep, campaign.ModeSampled, stamp).Cells {
				if c.Mode != campaign.ModeSampled {
					continue // bench/sched cells stay exact: covered above
				}
				fixed := c.Exact().Sampled()
				other := fixed
				other.Cfg.Sampling = sample.DeriveAdaptive(p.Warmup+1, p.Measure).Config()
				cases = append(cases,
					keepCase{sp.Key + " sampled", c, true},
					keepCase{sp.Key + " fixed-protocol sampled", fixed, false},
					keepCase{sp.Key + " sampled under another protocol", other, false})
			}
		}
		keep := gcKeep(p)
		for _, tc := range cases {
			if keep[tc.cell.Key()] != tc.keep {
				t.Errorf("%+v: %s %s: kept = %v, want %v", p, tc.name, tc.cell, !tc.keep, tc.keep)
			}
		}
	}
}

// TestGCGolden pins `campaign gc`'s report byte for byte on a tab5 store
// holding one stale cell, tab5's first cell at a memory latency no sweep
// uses: -dry-run names it and deletes nothing, then gc deletes it and
// nothing else.
func TestGCGolden(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	mustRun(t, "-exp", "tab5", "-store", store)
	st, err := campaign.OpenExisting(store)
	if err != nil {
		t.Fatal(err)
	}
	stale := experiments.Table5Sweep().Cells[0]
	stale.Cfg.MemLatency = 12_345
	if err := st.Put(stale, sim.Result{}); err != nil {
		t.Fatal(err)
	}
	cells := len(cellFiles(t, store))

	for _, tc := range []struct {
		golden string
		args   []string
		cells  int // cell files left afterwards
	}{
		{"gc_dry_run.golden.txt", []string{"-store", store, "-dry-run"}, cells},
		{"gc.golden.txt", []string{"-store", store}, cells - 1},
	} {
		var stdout bytes.Buffer
		if err := gc(tc.args, &stdout, io.Discard); err != nil {
			t.Fatalf("campaign gc %q: %v", tc.args, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := stdout.String(); got != string(want) {
			t.Errorf("campaign gc %q: output differs from %s\ngot:\n%s\nwant:\n%s", tc.args, tc.golden, got, want)
		}
		if n := len(cellFiles(t, store)); n != tc.cells {
			t.Errorf("campaign gc %q left %d cell files, want %d", tc.args, n, tc.cells)
		}
	}
	if st.Has(stale) {
		t.Error("gc kept the stale cell")
	}
	if _, missing := st.Count(experiments.Table5Sweep()); len(missing) > 0 {
		t.Errorf("gc deleted live cells: %v", missing)
	}
}

// TestGCAndWorkErrors checks how gc and work report bad command lines, as
// TestStatusErrors does for status: flag errors come back as errUsage
// (exit 2) and -h as flag.ErrHelp (exit 0); anything else is an error main
// prints (exit 1). None of these reaches a coordinator.
func TestGCAndWorkErrors(t *testing.T) {
	cmds := map[string]func(args []string, stdout, stderr io.Writer) error{"gc": gc, "work": work}
	for _, tc := range []struct {
		cmd  string
		args []string
		want error  // matched with errors.Is, when set
		msg  string // otherwise a substring of the error
	}{
		{cmd: "gc", args: []string{"-no-such-flag"}, want: errUsage},
		{cmd: "gc", args: []string{"-h"}, want: flag.ErrHelp},
		{cmd: "gc", msg: "gc needs -store"},
		{cmd: "gc", args: []string{"-store", t.TempDir()}, msg: "no manifest"},
		{cmd: "work", args: []string{"-no-such-flag"}, want: errUsage},
		{cmd: "work", args: []string{"-h"}, want: flag.ErrHelp},
		{cmd: "work", args: []string{"-retry-window", "soon"}, want: errUsage},
		{cmd: "work", msg: "work needs -coordinator"},
		{cmd: "work", args: []string{"-coordinator", "http://127.0.0.1:1", "-fault", "coordinator-restart"}, msg: "unknown worker fault kind"},
	} {
		err := cmds[tc.cmd](tc.args, io.Discard, io.Discard)
		switch {
		case err == nil:
			t.Errorf("campaign %s %q: no error", tc.cmd, tc.args)
		case tc.want != nil && !errors.Is(err, tc.want):
			t.Errorf("campaign %s %q: error %v, want %v", tc.cmd, tc.args, err, tc.want)
		case tc.want == nil && (errors.Is(err, errUsage) || !strings.Contains(err.Error(), tc.msg)):
			t.Errorf("campaign %s %q: error %v, want one mentioning %q", tc.cmd, tc.args, err, tc.msg)
		}
	}
}

// TestWorkOutcomes runs work against coordinators served over HTTP on the
// loopback interface: one whose campaign is already complete, where work
// computes nothing and returns nil (exit 0), and one with cells to lease,
// where an injected crash at the first cell returns coord.ErrKilled (exit
// 137).
func TestWorkOutcomes(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	mustRun(t, "-exp", "tab5", "-store", store)
	st, err := campaign.OpenExisting(store)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		sweep campaign.Sweep
		fault []string
		want  error
		log   string
	}{
		{"complete", experiments.Table5Sweep(), nil, nil, "0 cells computed, 0 reported missing"},
		{"crash", experiments.Figure4Sweep(), []string{"-fault", "worker-crash"}, coord.ErrKilled, "killed by injected fault"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co, err := coord.New(tc.name, tc.sweep, st, coord.Options{})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(coord.NewHTTPHandler(co))
			defer srv.Close()
			var stderr bytes.Buffer
			args := append([]string{"-coordinator", srv.URL, "-id", "w"}, tc.fault...)
			if err := work(args, io.Discard, &stderr); !errors.Is(err, tc.want) {
				t.Fatalf("campaign work %q: err = %v, want %v\nstderr:\n%s", args, err, tc.want, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.log) {
				t.Errorf("campaign work %q: stderr lacks %q:\n%s", args, tc.log, stderr.String())
			}
		})
	}
}
