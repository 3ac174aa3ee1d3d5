package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dcra"
	"dcra/internal/obs"
	"dcra/internal/sched"
)

// serveMain runs the open-system mode: a seeded stream of jobs arrives, a
// co-schedule picker places them onto free hardware contexts, and the run
// reports throughput, turnaround percentiles and fairness (see SCHEDULER.md).
func serveMain(args []string) {
	fs := flag.NewFlagSet("smtsim serve", flag.ExitOnError)
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
		sloP99 = fs.Uint64("slo-p99", 0,
			"declare a turnaround SLO: p99 of all jobs <= this many cycles, tracked over the health ring (0 = none)")
		healthEvery = fs.Uint64("health-every", 0,
			"health ring tick interval in cycles (0 = MaxCycles/128 when an SLO is declared)")
		httpAddr = fs.String("http", "",
			"after the trial, serve /metrics (JSON), /metrics.prom (Prometheus text) and /status (the run document) on this address")
		linger = fs.Duration("linger", 0,
			"with -http: exit after serving this long (0 = until SIGINT/SIGTERM)")
	)
	fs.Parse(args)

	cfg := baselineWithMemLatency(*memLatency)
	picker, err := sched.PickerByName(*pickerName)
	if err != nil {
		fatal(err)
	}
	var benches []string
	for _, n := range strings.Split(*benchPool, ",") {
		benches = append(benches, strings.TrimSpace(n))
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}
	// The registry backs /metrics when -http is given; telemetry never
	// perturbs the trial (the sched bit-identity guard), so it is always on.
	reg := obs.NewRegistry()
	var slos []sched.SLOSpec
	if *sloP99 > 0 {
		slos = []sched.SLOSpec{{Class: sched.ClassAll, Quantile: 0.99, Target: *sloP99}}
	}

	trial, err := sched.Run(sched.Config{
		Machine:  cfg,
		Contexts: *contexts,
		Alloc: func() dcra.Policy {
			pol, err := dcra.NewPolicy(dcra.PolicyName(*polName), cfg)
			if err != nil {
				fatal(err)
			}
			return pol
		},
		Picker:      picker,
		Arrivals:    sched.Arrivals{Kind: sched.ArrivalKind(*arrivals), Jobs: *jobs, Gap: *gap, Burst: *burst},
		Benches:     benches,
		Budget:      *budget,
		Seed:        *seed,
		MaxCycles:   *maxCycles,
		FFDrain:     *ffDrain,
		Obs:         reg,
		Tracer:      tracer,
		SLOs:        slos,
		HealthEvery: *healthEvery,
	})
	if err != nil {
		fatal(err)
	}
	flushTrace(tracer, *traceOut)

	if *jsonOut {
		emitJSON(trial.RunStats())
	} else {
		if *showLog {
			fmt.Print(trial.EventLogText())
		}
		s := trial.Summary()
		fmt.Println(trial)
		fmt.Printf("turnaround cycles: p50 %.0f | p99 %.0f | mean %.0f; uops/cycle %.3f; event log sha %s\n",
			s.P50Turnaround, s.P99Turnaround, s.MeanTurnaround, s.UopsPerCycle, s.EventLogSHA)
		printHealth(trial.Health)
	}
	if *httpAddr != "" {
		serveTrialHTTP(*httpAddr, *linger, reg, trial.RunStats())
	}
}

// printHealth summarizes the SLO layer's verdict in the text output.
func printHealth(h *sched.HealthReport) {
	if h == nil {
		return
	}
	fmt.Printf("health: %d intervals every %d cycles", h.Intervals, h.EveryCycles)
	if h.DroppedIntervals > 0 {
		fmt.Printf(" (%d oldest dropped)", h.DroppedIntervals)
	}
	fmt.Println()
	for _, r := range h.SLOs {
		state := "met"
		if !r.Met {
			state = "BREACHED"
		}
		fmt.Printf("  SLO p%g(%s) <= %d cycles: %s (attained %.4f over %d jobs, p%g = %.0f cycles, burn %.2fx, %d breach intervals)\n",
			r.Quantile*100, r.Class, r.TargetCycles, state,
			r.Attained, r.Observations, r.Quantile*100, r.QuantileCycles, r.Burn, r.BreachIntervals)
	}
}

// serveTrialHTTP exposes the finished trial's telemetry the same way the
// campaign coordinator does: /metrics (deterministic JSON snapshot),
// /metrics.prom (Prometheus text exposition 0.0.4) and /status (the
// machine-readable run document, health included). Scrapers and `curl` see
// the exact numbers the trial printed.
func serveTrialHTTP(addr string, linger time.Duration, reg *obs.Registry, stats sched.RunStats) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("GET /metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		reg.Snapshot().WriteProm(w)
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(stats)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "smtsim: serving /metrics, /metrics.prom, /status on %s\n", ln.Addr())
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		if linger > 0 {
			select {
			case <-sig:
			case <-time.After(linger):
			}
		} else {
			<-sig
		}
		ln.Close()
		close(done)
	}()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		select {
		case <-done: // expected: the linger/signal path closed the listener
		default:
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smtsim:", err)
	os.Exit(1)
}
