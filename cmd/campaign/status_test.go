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

	// An uninstrumented coordinator leasing fig4 over the tab5 store. It
	// never ticks a health ring and no worker takes a lease, so its report
	// holds nothing time-dependent.
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

	for _, tc := range []struct {
		name, golden string
		dir          string // written as STORE in the golden
		args         []string
		want         error
	}{
		{"complete", "status_tab5.golden.txt", store, []string{"-exp", "tab5", "-store", store}, nil},
		{"partial", "status_fig4.golden.txt", store, []string{"-exp", "fig4", "-store", store}, errIncomplete},
		{"corrupt", "status_corrupt.golden.txt", corrupt, []string{"-exp", "tab5", "-store", corrupt}, errIncomplete},
		{"sampled-over-exact", "status_tab5_sampled.golden.txt", store, []string{"-exp", "tab5", "-store", store, "-sampled"}, nil},
		{"coordinator", "status_coordinator.golden.txt", store, []string{"-coordinator", srv.URL}, errIncomplete},
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
