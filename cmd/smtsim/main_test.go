package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden pins smtsim's stdout, byte for byte, for the runs CI's smoke
// jobs and the docs use. Every golden under testdata/ is the output of the
// same command line (`smtsim <args>`); a run is deterministic for its seed,
// so any difference is a change in the simulator or in the report.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	static := []string{"-policy", "DCRA", "-warmup", "5000", "-cycles", "20000"}
	for _, tc := range []struct {
		name, golden string
		args         []string
	}{
		{"serve-open-json", "serve_open.golden.json", []string{"serve", "-contexts", "2", "-arrivals", "open", "-gap", "2000",
			"-jobs", "8", "-budget", "5000", "-picker", "SYMB", "-policy", "DCRA", "-max-cycles", "400000", "-json"}},
		{"serve-burst-log", "serve_burst_log.golden.txt", []string{"serve", "-contexts", "2", "-arrivals", "burst", "-burst", "4",
			"-gap", "2000", "-jobs", "8", "-budget", "5000", "-log"}},
		{"workload-json", "mem21.golden.json", []string{"-workload", "MEM2.1", "-policy", "DCRA", "-warmup", "15000", "-cycles", "60000", "-json"}},
		{"workload-sampled-json", "mem21_sampled.golden.json", []string{"-workload", "MEM2.1", "-policy", "DCRA", "-warmup", "15000",
			"-cycles", "60000", "-sampled", "-json"}},
		{"bench-text", "static.golden.txt", append([]string{"-bench", "mcf,gzip"}, static...)},
		// Spaces around the names in -bench select the same benchmarks and
		// must not leak into the thread labels.
		{"bench-text-spaced", "static.golden.txt", append([]string{"-bench", "mcf, gzip"}, static...)},
		{"bench-json-spaced", "static.golden.json", append([]string{"-bench", " mcf , gzip", "-json"}, static...)},
		// -policy and -mem-latency resolve through the policy table and the
		// paper's memory/L2 latency pairs.
		{"bench-rr-mem500", "static_rr_mem500.golden.txt", []string{"-bench", "mcf,gzip", "-policy", "RR",
			"-mem-latency", "500", "-warmup", "5000", "-cycles", "20000"}},
		{"workload-sra-mem300-json", "mix32_sra_mem300.golden.json", []string{"-workload", "MIX3.2", "-policy", "SRA",
			"-mem-latency", "300", "-warmup", "5000", "-cycles", "20000", "-json"}},
		// -probe samples per-thread IPC and ROB occupancy every N cycles.
		{"workload-probe", "mem21_probe.golden.txt", []string{"-workload", "MEM2.1", "-warmup", "5000", "-cycles", "40000",
			"-probe", "5000"}},
		{"bench-flushpp-probe-json", "static4_flushpp_probe.golden.json", []string{"-bench", "mcf,gzip,art,eon", "-policy", "FLUSH++",
			"-warmup", "5000", "-cycles", "30000", "-probe", "3000", "-json"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout bytes.Buffer
			if err := run(tc.args, &stdout, io.Discard); err != nil {
				t.Fatalf("smtsim %s: %v", strings.Join(tc.args, " "), err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := stdout.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("smtsim %s: output differs from %s\ngot:\n%s\nwant:\n%s",
					strings.Join(tc.args, " "), tc.golden, got, want)
			}
		})
	}
}

// TestRunErrors checks how run reports bad command lines: flag errors come
// back as errUsage (exit 2, after the flag package printed them) and -h as
// flag.ErrHelp (exit 0); everything else is an error main prints (exit 1).
func TestRunErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want error  // matched with errors.Is, when set
		msg  string // otherwise a substring of the error
	}{
		{args: []string{"-no-such-flag"}, want: errUsage},
		{args: []string{"serve", "-jobs", "many"}, want: errUsage},
		{args: []string{"serve", "-ff-drain"}, want: errUsage},
		{args: []string{"-h"}, want: flag.ErrHelp},
		{args: []string{"serve", "-h"}, want: flag.ErrHelp},
		{args: nil, msg: "specify -bench or -workload"},
		{args: []string{"-bench", "gzip", "-workload", "MEM2.1"}, msg: "not both"},
		{args: []string{"-bench", "gzip,nope"}, msg: `unknown benchmark "nope"`},
		{args: []string{"-workload", "FOO2.1"}, msg: "want e.g. MEM2.1"},
		{args: []string{"-bench", "gzip", "-policy", "NOPE"}, msg: "NOPE"},
		{args: []string{"serve", "-policy", "NOPE"}, msg: "NOPE"},
		{args: []string{"serve", "-picker", "NOPE"}, msg: "NOPE"},
		{args: []string{"serve", "-contexts", "0"}, msg: "hardware context"},
	} {
		err := run(tc.args, io.Discard, io.Discard)
		switch {
		case err == nil:
			t.Errorf("smtsim %q: no error", tc.args)
		case tc.want != nil && !errors.Is(err, tc.want):
			t.Errorf("smtsim %q: error %v, want %v", tc.args, err, tc.want)
		case tc.want == nil && (errors.Is(err, errUsage) || !strings.Contains(err.Error(), tc.msg)):
			t.Errorf("smtsim %q: error %v, want one mentioning %q", tc.args, err, tc.msg)
		}
	}
}
