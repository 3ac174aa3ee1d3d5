package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcra/internal/campaign"
	"dcra/internal/coord"
	"dcra/internal/experiments"
	"dcra/internal/obs"
)

// TestStatusGolden pins `campaign status`'s report byte for byte, with the
// store's directory written as STORE, and the error each case returns
// (errIncomplete, exit 1, whenever cells are missing). The stores hold the
// tab5 sweep at the test protocol; fig4's sweep contains tab5's 12 cells,
// so against the same store 60 of its 72 are missing.
func TestStatusGolden(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	mustRun(t, "-exp", "tab5", "-store", store)

	// A copy of the store in which one cell file was quarantined.
	corrupt := filepath.Join(t.TempDir(), "store")
	if err := os.CopyFS(corrupt, os.DirFS(store)); err != nil {
		t.Fatal(err)
	}
	key := experiments.Table5Sweep().Cells[0].Key()
	cells := filepath.Join(corrupt, "cells")
	if err := os.Rename(filepath.Join(cells, key+".json"), filepath.Join(cells, key+".corrupt")); err != nil {
		t.Fatal(err)
	}

	// A copy of the store in which the same cell's file is truncated: status
	// quarantines it, so its report is the corrupt store's.
	truncated := truncatedCopy(t, store)

	// A copy of the store with a directory in place of the same cell's file:
	// Get cannot read it, and status names the error.
	unreadable := filepath.Join(t.TempDir(), "store")
	if err := os.CopyFS(unreadable, os.DirFS(store)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(unreadable, "cells", key+".json")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}

	// An uninstrumented coordinator leasing fig4 over the tab5 store. No
	// worker takes a lease, so its report holds nothing time-dependent.
	st, err := campaign.OpenExisting(store)
	if err != nil {
		t.Fatal(err)
	}
	co, err := coord.New("fig4", experiments.Figure4Sweep(), st, coord.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.NewHTTPHandler(co))
	defer srv.Close()

	// The same coordinator built as the benchmark's campaign rig builds it:
	// instrumented, with the deprecated Checkpoint, Flight and CellSLO
	// options set, and ticked. Those options and HealthTick are inert, so its
	// report is the plain coordinator's and its /v1/status has no health key.
	rig, err := coord.New("fig4", experiments.Figure4Sweep(), st, coord.Options{
		Checkpoint: filepath.Join(store, "coordinator.json"),
		Obs:        obs.NewRegistry(),
		Flight:     obs.NewFlightRecorder(512),
		CellSLO:    coord.CellSLO{Quantile: 0.99, Window: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.HealthTick()
	rigSrv := httptest.NewServer(coord.NewHTTPHandler(rig))
	defer rigSrv.Close()
	resp, err := http.Get(rigSrv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := doc["health"]; ok {
		t.Errorf("/v1/status of a ticked coordinator has a health key: %s", h)
	}

	for _, tc := range []struct {
		name, golden string
		dir          string // written as STORE in the golden
		args         []string
		want         error
	}{
		{"complete", "status_tab5.golden.txt", store, []string{"-exp", "tab5", "-store", store}, nil},
		{"partial", "status_fig4.golden.txt", store, []string{"-exp", "fig4", "-store", store}, errIncomplete},
		{"corrupt", "status_corrupt.golden.txt", corrupt, []string{"-exp", "tab5", "-store", corrupt}, errIncomplete},
		{"truncated", "status_corrupt.golden.txt", truncated, []string{"-exp", "tab5", "-store", truncated}, errIncomplete},
		{"unreadable", "status_unreadable.golden.txt", unreadable, []string{"-exp", "tab5", "-store", unreadable}, errIncomplete},
		{"sampled-over-exact", "status_tab5_sampled.golden.txt", store, []string{"-exp", "tab5", "-store", store, "-sampled"}, nil},
		{"coordinator", "status_coordinator.golden.txt", store, []string{"-coordinator", srv.URL}, errIncomplete},
		{"coordinator-rig-options", "status_coordinator.golden.txt", store, []string{"-coordinator", rigSrv.URL}, errIncomplete},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout bytes.Buffer
			if err := status(tc.args, &stdout, io.Discard); err != tc.want {
				t.Fatalf("campaign status %q: err = %v, want %v", tc.args, err, tc.want)
			}
			got := strings.ReplaceAll(stdout.String(), tc.dir, "STORE")
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("campaign status %q: output differs from %s\ngot:\n%s\nwant:\n%s", tc.args, tc.golden, got, want)
			}
		})
	}
	if _, err := os.Stat(filepath.Join(truncated, "cells", key+".corrupt")); err != nil {
		t.Errorf("status left the truncated cell file in place: %v", err)
	}
}

// TestStatusErrors checks how status reports bad command lines: flag errors
// come back as errUsage (exit 2) and -h as flag.ErrHelp (exit 0); anything
// else is an error main prints (exit 1).
func TestStatusErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want error  // matched with errors.Is, when set
		msg  string // otherwise a substring of the error
	}{
		{args: []string{"-no-such-flag"}, want: errUsage},
		{args: []string{"-h"}, want: flag.ErrHelp},
		{args: []string{"-exp", "nope", "-store", t.TempDir()}, msg: "nope"},
		{args: []string{"-exp", "tab5"}, msg: "needs -store or -coordinator"},
		{args: []string{"-exp", "tab5", "-store", t.TempDir()}, msg: "no manifest"},
	} {
		err := status(tc.args, io.Discard, io.Discard)
		switch {
		case err == nil:
			t.Errorf("campaign status %q: no error", tc.args)
		case tc.want != nil && !errors.Is(err, tc.want):
			t.Errorf("campaign status %q: error %v, want %v", tc.args, err, tc.want)
		case tc.want == nil && (errors.Is(err, errUsage) || !strings.Contains(err.Error(), tc.msg)):
			t.Errorf("campaign status %q: error %v, want one mentioning %q", tc.args, err, tc.msg)
		}
	}
}
