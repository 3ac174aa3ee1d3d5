// Command smtsim runs the simulated SMT processor: either one fixed
// multiprogrammed workload for a fixed window (the default, closed-system
// mode) or an open stream of arriving jobs served by a scheduler (`smtsim
// serve`; see SCHEDULER.md). Both modes share the -json output schema.
//
// Usage:
//
//	smtsim -bench mcf,gzip -policy DCRA -warmup 50000 -cycles 300000
//	smtsim -workload MEM2.1 -policy FLUSH++ -mem-latency 500
//	smtsim -bench gzip -json
//	smtsim serve -arrivals open -gap 3000 -jobs 16 -picker SYMB -policy DCRA
//	smtsim -list
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dcra"
	"dcra/internal/obs"
	"dcra/internal/sample"
	"dcra/internal/sched"
	"dcra/internal/sim"
	"dcra/internal/workload"
)

// errUsage reports a command line the flag package rejected; the flag
// package has already printed why.
var errUsage = errors.New("invalid command line")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "smtsim:", err)
		os.Exit(1)
	}
}

// run executes one smtsim command line (without the program name): the
// report goes to stdout, diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "serve" {
		return serve(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("smtsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchList  = fs.String("bench", "", "comma-separated benchmark names (see -list)")
		wlName     = fs.String("workload", "", "paper Table 4 workload, e.g. MEM2.1 (kind+threads.group)")
		polName    = fs.String("policy", "DCRA", "policy: "+strings.Join(dcra.PolicyNames(), ", "))
		warmup     = fs.Uint64("warmup", 50_000, "warmup cycles before statistics reset")
		cycles     = fs.Uint64("cycles", 300_000, "measured cycles")
		seed       = fs.Uint64("seed", 0x5eeddc2a, "workload generator seed")
		memLatency = fs.Int("mem-latency", 0, "override main-memory latency (pairs L2 with 10/20/25)")
		physRegs   = fs.Int("regs", 0, "override physical register file size per class")
		list       = fs.Bool("list", false, "list benchmarks and workloads, then exit")
		jsonOut    = fs.Bool("json", false, "emit machine-readable JSON instead of text")
		sampled    = fs.Bool("sampled", false, "SMARTS-style sampled run: variance-driven window count, schedule derived from -warmup/-cycles")
		traceOut   = fs.String("trace", "", "write a Chrome trace-event JSON file of the run (load in Perfetto / chrome://tracing)")
		probe      = fs.Uint64("probe", 0, "sample per-thread IPC and ROB occupancy every N measured cycles (exact mode only)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "benchmarks:")
		for _, n := range dcra.BenchmarkNames() {
			p := dcra.MustProfile(n)
			fmt.Fprintf(stdout, "  %-8s %s (paper L2 miss rate %.1f%%)\n", n, p.Type(), p.PaperL2MissRate)
		}
		fmt.Fprintln(stdout, "workloads (paper Table 4):")
		for _, w := range dcra.AllWorkloads() {
			fmt.Fprintf(stdout, "  %-8s %v\n", w.ID(), w.Names)
		}
		return nil
	}

	cfg := baselineWithMemLatency(*memLatency)
	if *physRegs > 0 {
		cfg = cfg.WithPhysRegs(*physRegs)
	}

	profiles, names, err := resolveThreads(*benchList, *wlName)
	if err != nil {
		return err
	}

	pol, err := dcra.NewPolicy(dcra.PolicyName(*polName), cfg)
	if err != nil {
		return err
	}

	m, err := dcra.NewMachine(cfg, profiles, pol, *seed)
	if err != nil {
		return err
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}

	if *sampled {
		p := sample.DeriveAdaptive(*warmup, *cycles)
		sum, agg, err := sample.RunObserved(m, p, nil, tracer)
		if err != nil {
			return err
		}
		if err := flushTrace(tracer, *traceOut, stderr); err != nil {
			return err
		}
		if *jsonOut {
			rs := sched.StaticRunStats(pol.Name(), names, agg)
			rs.Throughput = sum.Throughput // window mean, not the aggregate
			rs.Sampled = sum
			return emitJSON(stdout, rs)
		}
		windows := len(sum.WindowThroughput)
		fmt.Fprintf(stdout, "policy=%s threads=%v sampled: %d windows x (warmup=%d, measure=%d cycles), gaps ff=%d cycles\n",
			pol.Name(), names, windows, p.Warmup, p.Measure, p.FFCycles)
		fmt.Fprintf(stdout, "adaptive: stopped at %d of [%d,%d] windows (target %d ppm), warm-tail %d uops\n",
			windows, p.MinWindows, p.Windows, p.TargetRelCIPpm, p.WarmTail)
		fmt.Fprintf(stdout, "throughput %.4f +/- %.4f (99.7%% CI), %d uops fast-forwarded, %d cycles measured (%d detailed, %d overhead)\n",
			sum.Throughput, sum.ThroughputCI, sum.FastForwarded, sum.MeasuredCycles, sum.DetailedCycles, sum.OverheadCycles)
		fmt.Fprint(stdout, agg)
		return nil
	}

	m.Run(*warmup)
	m.ResetStats()
	var series *obs.ProbeSeries
	if *probe > 0 {
		series = sim.ProbeRun(m, *cycles, *probe)
	} else {
		m.Run(*cycles)
	}
	if tracer != nil {
		// One lane in the cycle domain: simulation cycles read as µs in the
		// viewer, so the same seed always yields the same trace.
		tracer.Process(0, "smtsim (cycle domain)")
		tracer.Lane(0, 0, "run")
		tracer.CompleteAt(0, 0, "warmup", "phase", 0, float64(*warmup))
		tracer.CompleteAt(0, 0, "measure", "phase", float64(*warmup), float64(*cycles))
		if err := flushTrace(tracer, *traceOut, stderr); err != nil {
			return err
		}
	}

	st := m.Stats()
	if *jsonOut {
		rs := sched.StaticRunStats(pol.Name(), names, st)
		rs.Probe = series
		return emitJSON(stdout, rs)
	}
	fmt.Fprintf(stdout, "policy=%s threads=%v warmup=%d measured=%d\n", pol.Name(), names, *warmup, *cycles)
	fmt.Fprint(stdout, st)
	if series != nil {
		fmt.Fprintf(stdout, "probe every %d cycles (%d samples):\n", series.Interval, len(series.Samples))
		for _, sm := range series.Samples {
			fmt.Fprintf(stdout, "  @%-8d ipc %v rob %v\n", sm.Cycle, formatIPCs(sm.IPC), sm.ROBOcc)
		}
	}
	h := m.Hierarchy()
	fmt.Fprintf(stdout, "caches: L1I %.2f%% | L1D %.2f%% | L2 %.2f%% miss; %d memory fills; TLB %.2f%% miss\n",
		h.L1I.MissRate(), h.L1D.MissRate(), h.L2.MissRate(), h.MemMisses, h.TLB.MissRate())
	return nil
}

// parseFlags parses args into fs. The flag package reports a rejected
// command line on fs's output; it comes back as errUsage, and -h as
// flag.ErrHelp.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

// baselineWithMemLatency returns the baseline configuration, optionally
// re-latencied: a -mem-latency override pairs the L2 latency per the paper's
// Section 5.3 points (config.PaperLatencies), keeping the baseline L2
// latency for other values. Shared by the static and serve modes so both
// build the same machine for the same flag.
func baselineWithMemLatency(memLatency int) dcra.Config {
	cfg := dcra.BaselineConfig()
	if memLatency <= 0 {
		return cfg
	}
	return cfg.WithPaperMemLatency(memLatency)
}

// flushTrace writes a recorded span trace; nil tracer means -trace was not
// given. The confirmation goes to stderr so -json stdout stays parseable.
func flushTrace(tr *obs.Tracer, path string, stderr io.Writer) error {
	if tr == nil {
		return nil
	}
	if err := tr.WriteFile(path); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(stderr, "smtsim: wrote trace %s (%d events)\n", path, tr.Len())
	return nil
}

// formatIPCs renders a probe sample's per-thread IPCs compactly.
func formatIPCs(ipcs []float64) string {
	parts := make([]string, len(ipcs))
	for i, v := range ipcs {
		parts[i] = strconv.FormatFloat(v, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// emitJSON writes the shared RunStats schema to stdout.
func emitJSON(stdout io.Writer, rs sched.RunStats) error {
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	_, err = stdout.Write(append(data, '\n'))
	return err
}

// resolveThreads turns either -bench or -workload into profiles and their
// thread labels (the benchmark names, trimmed of spaces).
func resolveThreads(benchList, wlName string) ([]dcra.Profile, []string, error) {
	switch {
	case benchList != "" && wlName != "":
		return nil, nil, fmt.Errorf("use either -bench or -workload, not both")
	case benchList != "":
		names := strings.Split(benchList, ",")
		profiles := make([]dcra.Profile, len(names))
		for i, n := range names {
			names[i] = strings.TrimSpace(n)
			p, ok := dcra.Benchmarks()[names[i]]
			if !ok {
				return nil, nil, fmt.Errorf("unknown benchmark %q (try -list)", names[i])
			}
			profiles[i] = p
		}
		return profiles, names, nil
	case wlName != "":
		w, err := parseWorkload(wlName)
		if err != nil {
			return nil, nil, err
		}
		return w.Profiles(), w.Names, nil
	default:
		return nil, nil, fmt.Errorf("specify -bench or -workload (try -list)")
	}
}

// parseWorkload resolves a paper Table 4 workload by its ID ("MEM2.g1",
// see -list), also accepting the shorthands "MEM2.1" and "MEM2" for it.
func parseWorkload(s string) (dcra.Workload, error) {
	id := s + ".g1"
	if kt, group, ok := strings.Cut(s, "."); ok {
		id = kt + ".g" + strings.TrimPrefix(group, "g")
	}
	w, err := workload.ByID(id)
	if err != nil {
		return dcra.Workload{}, fmt.Errorf("workload %q: want e.g. MEM2.1 (try -list)", s)
	}
	return w, nil
}
