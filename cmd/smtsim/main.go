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
	"flag"
	"fmt"
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

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	var (
		benchList  = flag.String("bench", "", "comma-separated benchmark names (see -list)")
		wlName     = flag.String("workload", "", "paper Table 4 workload, e.g. MEM2.1 (kind+threads.group)")
		polName    = flag.String("policy", "DCRA", "policy: "+strings.Join(dcra.PolicyNames(), ", "))
		warmup     = flag.Uint64("warmup", 50_000, "warmup cycles before statistics reset")
		cycles     = flag.Uint64("cycles", 300_000, "measured cycles")
		seed       = flag.Uint64("seed", 0x5eeddc2a, "workload generator seed")
		memLatency = flag.Int("mem-latency", 0, "override main-memory latency (pairs L2 with 10/20/25)")
		physRegs   = flag.Int("regs", 0, "override physical register file size per class")
		list       = flag.Bool("list", false, "list benchmarks and workloads, then exit")
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		sampled    = flag.Bool("sampled", false, "SMARTS-style sampled run: variance-driven window count, schedule derived from -warmup/-cycles")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON file of the run (load in Perfetto / chrome://tracing)")
		probe      = flag.Uint64("probe", 0, "sample per-thread IPC and ROB occupancy every N measured cycles (exact mode only)")
	)
	flag.Parse()

	if *list {
		fmt.Println("benchmarks:")
		for _, n := range dcra.BenchmarkNames() {
			p := dcra.MustProfile(n)
			fmt.Printf("  %-8s %s (paper L2 miss rate %.1f%%)\n", n, p.Type(), p.PaperL2MissRate)
		}
		fmt.Println("workloads (paper Table 4):")
		for _, w := range dcra.AllWorkloads() {
			fmt.Printf("  %-8s %v\n", w.ID(), w.Names)
		}
		return
	}

	cfg := baselineWithMemLatency(*memLatency)
	if *physRegs > 0 {
		cfg = cfg.WithPhysRegs(*physRegs)
	}

	profiles, names, err := resolveThreads(*benchList, *wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smtsim:", err)
		os.Exit(1)
	}

	pol, err := dcra.NewPolicy(dcra.PolicyName(*polName), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smtsim:", err)
		os.Exit(1)
	}

	m, err := dcra.NewMachine(cfg, profiles, pol, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smtsim:", err)
		os.Exit(1)
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}

	if *sampled {
		p := sample.DeriveAdaptive(*warmup, *cycles)
		sum, agg, err := sample.RunObserved(m, p, nil, tracer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smtsim:", err)
			os.Exit(1)
		}
		flushTrace(tracer, *traceOut)
		if *jsonOut {
			rs := sched.StaticRunStats(pol.Name(), names, agg)
			rs.Throughput = sum.Throughput // window mean, not the aggregate
			rs.Sampled = sum
			emitJSON(rs)
			return
		}
		windows := len(sum.WindowThroughput)
		fmt.Printf("policy=%s threads=%v sampled: %d windows x (warmup=%d, measure=%d cycles), gaps ff=%d cycles\n",
			pol.Name(), names, windows, p.Warmup, p.Measure, p.FFCycles)
		fmt.Printf("adaptive: stopped at %d of [%d,%d] windows (target %d ppm), warm-tail %d uops\n",
			windows, p.MinWindows, p.Windows, p.TargetRelCIPpm, p.WarmTail)
		fmt.Printf("throughput %.4f +/- %.4f (99.7%% CI), %d uops fast-forwarded, %d cycles measured (%d detailed, %d overhead)\n",
			sum.Throughput, sum.ThroughputCI, sum.FastForwarded, sum.MeasuredCycles, sum.DetailedCycles, sum.OverheadCycles)
		fmt.Print(agg)
		return
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
		flushTrace(tracer, *traceOut)
	}

	st := m.Stats()
	if *jsonOut {
		rs := sched.StaticRunStats(pol.Name(), names, st)
		rs.Probe = series
		emitJSON(rs)
		return
	}
	fmt.Printf("policy=%s threads=%v warmup=%d measured=%d\n", pol.Name(), names, *warmup, *cycles)
	fmt.Print(st)
	if series != nil {
		fmt.Printf("probe every %d cycles (%d samples):\n", series.Interval, len(series.Samples))
		for _, sm := range series.Samples {
			fmt.Printf("  @%-8d ipc %v rob %v\n", sm.Cycle, formatIPCs(sm.IPC), sm.ROBOcc)
		}
	}
	h := m.Hierarchy()
	fmt.Printf("caches: L1I %.2f%% | L1D %.2f%% | L2 %.2f%% miss; %d memory fills; TLB %.2f%% miss\n",
		h.L1I.MissRate(), h.L1D.MissRate(), h.L2.MissRate(), h.MemMisses, h.TLB.MissRate())
}

// baselineWithMemLatency returns the baseline configuration, optionally
// re-latencied: a -mem-latency override pairs the L2 latency per the paper's
// Section 5.3 points (100/10, 300/20, 500/25), keeping the baseline L2
// latency for other values. Shared by the static and serve modes so both
// build the same machine for the same flag.
func baselineWithMemLatency(memLatency int) dcra.Config {
	cfg := dcra.BaselineConfig()
	if memLatency <= 0 {
		return cfg
	}
	l2 := map[int]int{100: 10, 300: 20, 500: 25}[memLatency]
	if l2 == 0 {
		l2 = cfg.L2.Latency
	}
	return cfg.WithMemLatency(memLatency, l2)
}

// flushTrace writes a recorded span trace; nil tracer means -trace was not
// given. The confirmation goes to stderr so -json stdout stays parseable.
func flushTrace(tr *obs.Tracer, path string) {
	if tr == nil {
		return
	}
	if err := tr.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "smtsim: writing trace:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "smtsim: wrote trace %s (%d events)\n", path, tr.Len())
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
func emitJSON(rs sched.RunStats) {
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "smtsim:", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(data, '\n'))
}

// resolveThreads turns either -bench or -workload into profiles.
func resolveThreads(benchList, wlName string) ([]dcra.Profile, []string, error) {
	switch {
	case benchList != "" && wlName != "":
		return nil, nil, fmt.Errorf("use either -bench or -workload, not both")
	case benchList != "":
		names := strings.Split(benchList, ",")
		profiles := make([]dcra.Profile, 0, len(names))
		for _, n := range names {
			n = strings.TrimSpace(n)
			p, ok := dcra.Benchmarks()[n]
			if !ok {
				return nil, nil, fmt.Errorf("unknown benchmark %q (try -list)", n)
			}
			profiles = append(profiles, p)
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

// parseWorkload parses "MEM2.1" style names: kind, thread count, group.
func parseWorkload(s string) (dcra.Workload, error) {
	var kind workload.Kind
	var rest string
	switch {
	case strings.HasPrefix(s, "ILP"):
		kind, rest = workload.ILP, s[3:]
	case strings.HasPrefix(s, "MIX"):
		kind, rest = workload.MIX, s[3:]
	case strings.HasPrefix(s, "MEM"):
		kind, rest = workload.MEM, s[3:]
	default:
		return dcra.Workload{}, fmt.Errorf("workload %q: want e.g. MEM2.1", s)
	}
	parts := strings.SplitN(rest, ".", 2)
	threads, err := strconv.Atoi(parts[0])
	if err != nil {
		return dcra.Workload{}, fmt.Errorf("workload %q: bad thread count", s)
	}
	group := 1
	if len(parts) == 2 {
		if group, err = strconv.Atoi(strings.TrimPrefix(parts[1], "g")); err != nil {
			return dcra.Workload{}, fmt.Errorf("workload %q: bad group", s)
		}
	}
	return dcra.GetWorkload(threads, kind, group)
}
