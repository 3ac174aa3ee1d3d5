package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"dcra"
	"dcra/internal/obs"
	"dcra/internal/sched"
)

// serve runs the open-system mode: a seeded stream of jobs arrives, a
// co-schedule picker places them onto free hardware contexts, and the run
// reports throughput, turnaround percentiles and fairness (see SCHEDULER.md).
func serve(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("smtsim serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		contexts  = fs.Int("contexts", 4, "hardware contexts serving the job stream")
		arrivals  = fs.String("arrivals", "open", "arrival process: batch, open or burst")
		gap       = fs.Uint64("gap", 3_000, "mean interarrival gap in cycles (open/burst)")
		burst     = fs.Int("burst", 4, "jobs per burst (burst arrivals)")
		jobs      = fs.Int("jobs", 16, "number of jobs offered")
		budget    = fs.Uint64("budget", 24_000, "mean committed-uop budget per job (drawn from [b/2, 3b/2])")
		benchPool = fs.String("benches", "gzip,mcf,eon,art,gcc,swim,bzip2,equake",
			"comma-separated bench pool jobs draw from")
		pickerName = fs.String("picker", "FCFS", "co-schedule policy: "+strings.Join(sched.PickerNames(), ", "))
		polName    = fs.String("policy", "DCRA", "allocation/fetch policy: "+strings.Join(dcra.PolicyNames(), ", "))
		seed       = fs.Uint64("seed", 0x5eeddc2a, "trial seed (arrivals, bench picks, streams)")
		maxCycles  = fs.Uint64("max-cycles", 5_000_000, "cycle horizon; unfinished jobs count as incomplete")
		memLatency = fs.Int("mem-latency", 0, "override main-memory latency (pairs L2 with 10/20/25)")
		showLog    = fs.Bool("log", false, "print the job event log")
		jsonOut    = fs.Bool("json", false, "emit machine-readable JSON instead of text")
		ffDrain    = fs.Bool("ff-drain", false,
			"fast-forward the tail: once all jobs arrived and none queue, drain the last co-schedule functionally (event-log digest is mode-dependent)")
		traceOut = fs.String("trace", "",
			"write a Chrome trace-event JSON file: one lane per hardware context, one span per job, in the cycle domain")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	cfg := baselineWithMemLatency(*memLatency)
	picker, err := sched.PickerByName(*pickerName)
	if err != nil {
		return err
	}
	alloc := dcra.PolicyName(*polName)
	if _, err := dcra.NewPolicy(alloc, cfg); err != nil {
		return err
	}
	var benches []string
	for _, n := range strings.Split(*benchPool, ",") {
		benches = append(benches, strings.TrimSpace(n))
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}

	trial, err := sched.Run(sched.Config{
		Machine:  cfg,
		Contexts: *contexts,
		Alloc: func() dcra.Policy {
			pol, _ := dcra.NewPolicy(alloc, cfg) // the name was checked above
			return pol
		},
		Picker:    picker,
		Arrivals:  sched.Arrivals{Kind: sched.ArrivalKind(*arrivals), Jobs: *jobs, Gap: *gap, Burst: *burst},
		Benches:   benches,
		Budget:    *budget,
		Seed:      *seed,
		MaxCycles: *maxCycles,
		FFDrain:   *ffDrain,
		Tracer:    tracer,
	})
	if err != nil {
		return err
	}
	if err := flushTrace(tracer, *traceOut, stderr); err != nil {
		return err
	}

	if *jsonOut {
		return emitJSON(stdout, trial.RunStats())
	}
	if *showLog {
		fmt.Fprint(stdout, trial.EventLogText())
	}
	s := trial.Summary()
	fmt.Fprintln(stdout, trial)
	fmt.Fprintf(stdout, "turnaround cycles: p50 %.0f | p99 %.0f | mean %.0f; uops/cycle %.3f; event log sha %s\n",
		s.P50Turnaround, s.P99Turnaround, s.MeanTurnaround, s.UopsPerCycle, s.EventLogSHA)
	return nil
}
