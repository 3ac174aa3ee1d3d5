// The coordinated campaign subcommands: `coordinate` serves leases over
// HTTP and renders when the store is complete; `work` pulls leases,
// simulates cells and streams results home.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/coord"
	"dcra/internal/coord/faults"
	"dcra/internal/experiments"
	"dcra/internal/obs"
)

// writeTrace flushes a recorded span trace to disk; nil means -trace was not
// given and nothing was recorded.
func writeTrace(tr *obs.Tracer, path string) {
	if tr == nil {
		return
	}
	if err := tr.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "coordinate: writing trace:", err)
		return
	}
	fmt.Printf("campaign: wrote trace %s (%d events)\n", path, tr.Len())
}

func cmdCoordinate(args []string) {
	fs := flag.NewFlagSet("campaign coordinate", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8123", "HTTP listen address")
		exp         = fs.String("exp", "", "experiment key (tab1,fig2,... — see EXPERIMENTS.md)")
		storeDir    = fs.String("store", "", "persistent result store directory")
		csvDir      = fs.String("csv", "", "CSV artifact directory (default <store>/csv)")
		rangeSize   = fs.Int("range", 0, "cells per lease (0 = default)")
		ttl         = fs.Duration("ttl", 0, "lease TTL; a lease with no heartbeat for this long is reclaimed (0 = default)")
		retries     = fs.Int("retries", 0, "per-cell retry budget before a cell is declared missing (0 = default)")
		backoff     = fs.Duration("backoff", 0, "base retry backoff, doubled per attempt (0 = default)")
		backoffMax  = fs.Duration("backoff-max", 0, "retry backoff cap (0 = default)")
		speculate   = fs.Duration("speculate", 0, "re-dispatch a straggling lease to a second worker after this long (0 = default)")
		deadline    = fs.Duration("deadline", 0, "campaign deadline; on expiry drain leases and render what completed (0 = none)")
		grace       = fs.Duration("grace", 30*time.Second, "drain grace: how long to wait for in-flight leases, and for live workers to hear the campaign is over")
		checkpoint  = fs.String("checkpoint", "", "coordinator checkpoint file (default <store>/coordinator.json)")
		seed        = fs.Uint64("seed", 1, "backoff jitter seed")
		healthEvery = fs.Duration("health-every", 2*time.Second, "health ring tick interval (windowed rates for /status and `campaign top`)")
		sloP        = fs.Float64("cell-slo-p", 0.99, "cell-latency SLO quantile")
		sloMs       = fs.Int64("cell-slo-ms", 0, "cell-latency SLO target in ms; 0 disables the objective")
		sloWindow   = fs.Int("cell-slo-window", 30, "cell-latency SLO sliding window, in health intervals")
		sflags      = addSuiteFlags(fs)
	)
	fs.Parse(args)

	spec, err := experiments.SpecByKey(*exp)
	if err != nil {
		fatal(err)
	}
	if *storeDir == "" {
		fatal(fmt.Errorf("coordinate needs -store (the rendered campaign must survive the process)"))
	}
	if *csvDir == "" {
		*csvDir = filepath.Join(*storeDir, "csv")
	}
	if *checkpoint == "" {
		*checkpoint = filepath.Join(*storeDir, "coordinator.json")
	}
	s := sflags.suite()
	st, err := campaign.Open(*storeDir, s.StoreParams())
	if err != nil {
		fatal(err)
	}
	s.Store = st
	sweep := experiments.ApplyModeSampling(spec.Sweep(), s.Mode, s.Sampling)

	// The coordinator always carries a metrics registry so /metrics serves a
	// live snapshot; the span tracer (lease lifecycles, worker cell
	// execution, the final render's engine lanes) only exists under -trace.
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *sflags.trace != "" {
		tracer = obs.NewTracer()
	}
	s.Instrument(reg, tracer)

	// The flight recorder is always on: recording is a mutex and a slot
	// write, and the ring only reaches disk when the campaign aborts.
	flight := obs.NewFlightRecorder(512)
	flightPath := filepath.Join(*storeDir, "flightrec.json")
	dumpFlight := func(reason string) {
		if err := flight.WriteFile(flightPath, reason); err != nil {
			fmt.Fprintln(os.Stderr, "coordinate: writing flight record:", err)
			return
		}
		fmt.Fprintf(os.Stderr, "coordinate: wrote flight record %s (%d events, reason: %s)\n",
			flightPath, flight.Len(), reason)
	}

	logger := log.New(os.Stderr, "coordinate: ", log.LstdFlags)
	co, err := coord.New(spec.Key, sweep, st, coord.Options{
		RangeSize:      *rangeSize,
		LeaseTTL:       *ttl,
		RetryBudget:    *retries,
		BackoffBase:    *backoff,
		BackoffMax:     *backoffMax,
		SpeculateAfter: *speculate,
		Seed:           *seed,
		Checkpoint:     *checkpoint,
		Logf:           logger.Printf,
		Obs:            reg,
		Tracer:         tracer,
		Flight:         flight,
		CellSLO:        coord.CellSLO{Quantile: *sloP, TargetMs: *sloMs, Window: *sloWindow},
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: coord.NewHTTPHandler(co)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	status := co.Status()
	logger.Printf("serving %s on %s: %d/%d cells already in store",
		spec.Key, ln.Addr(), status.Done, status.Total)

	// Wait for completion, the deadline, or a shutdown signal. On deadline
	// or signal the coordinator degrades gracefully: stop issuing leases,
	// give in-flight leases a grace period to stream home, then render
	// whatever subset completed and report the missing cells explicitly.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	var timeout <-chan time.Time
	if *deadline > 0 {
		timeout = time.After(*deadline)
	}
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	co.HealthTick() // the zero baseline; windowed rates measure from here
	healthTick := time.NewTicker(*healthEvery)
	defer healthTick.Stop()
	drained := false
	aborted := ""
wait:
	for {
		select {
		case <-tick.C:
			if co.Status().Complete() {
				break wait
			}
		case <-healthTick.C:
			co.HealthTick()
		case <-timeout:
			logger.Printf("deadline reached, draining (grace %s)", *grace)
			drained, aborted = true, "campaign deadline reached"
			co.Drain()
			co.WaitIdle(*grace)
			break wait
		case s := <-sig:
			logger.Printf("%s received, draining (grace %s)", s, *grace)
			drained, aborted = true, s.String()+" received"
			co.Drain()
			co.WaitIdle(*grace)
			break wait
		case err := <-serveErr:
			dumpFlight("coordinator HTTP server died: " + err.Error())
			fatal(fmt.Errorf("coordinator HTTP server: %w", err))
		}
	}
	co.HealthTick() // close the final interval before reporting
	// Let live workers hear StateDone before the listener goes away, then
	// stop accepting. A worker parked between polls would otherwise find the
	// port closed and retry into its retry window.
	if !drained {
		co.Drain()
		co.WaitIdle(*grace)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(shutdownCtx)

	status = co.Status()
	missing := co.Missing()
	logger.Printf("campaign %s: %d/%d cells complete, %d missing, %d retries",
		spec.Key, status.Done, status.Total, len(missing), status.Retries)
	if drained && len(missing) == 0 {
		// Aborted but nothing lost: the flight record still documents how
		// the campaign wound down.
		dumpFlight(aborted + " (all cells complete)")
	}
	if len(missing) > 0 {
		for _, c := range missing {
			fmt.Fprintf(os.Stderr, "coordinate: missing %s (out of retry budget or deadline)\n", c)
		}
		// Keep the partial trace and the flight record: the lease spans and
		// last control-plane events of a campaign that ran out of budget are
		// exactly what a post-mortem wants to look at.
		writeTrace(tracer, *sflags.trace)
		reason := fmt.Sprintf("%d of %d cells missing", len(missing), status.Total)
		if aborted != "" {
			reason += " after " + aborted
		}
		dumpFlight(reason)
		fatal(fmt.Errorf("%d of %d cells missing; store %s holds the completed subset (re-run to resume)",
			len(missing), status.Total, *storeDir))
	}

	// Every cell is home: render strictly from the store. RequireStore turns
	// any hole (a cell raced out from under us, a quarantined corrupt file)
	// into a hard error instead of a silent local resimulation.
	s.RequireStore = true
	tables, err := spec.Render(s)
	if err != nil {
		if errors.Is(err, experiments.ErrMissingCell) {
			fatal(fmt.Errorf("store lost cells between completion and render: %w", err))
		}
		fatal(err)
	}
	for _, rt := range tables {
		rt.Table.Render(os.Stdout)
	}
	paths, err := experiments.WriteCSVs(*csvDir, tables)
	if err != nil {
		fatal(err)
	}
	for _, p := range paths {
		fmt.Printf("campaign: wrote %s\n", p)
	}
	fmt.Printf("campaign: %s: %d cells rendered from store (%d retries during campaign)\n",
		spec.Key, status.Total, status.Retries)
	writeTrace(tracer, *sflags.trace)
}

// coordinatorStatus queries a live coordinator and renders its progress
// report; `campaign status -coordinator URL`. Exits 1 while the campaign is
// incomplete, so scripts can poll it.
func coordinatorStatus(url string) {
	t := &coord.HTTPTransport{Base: url}
	s, err := t.Status()
	if err != nil {
		fatal(fmt.Errorf("querying coordinator %s: %w", url, err))
	}
	fmt.Printf("campaign: %s (sweep %s, warmup %d, measure %d): %d/%d cells done, %d leased, %d pending, %d exhausted, %d retries\n",
		s.Campaign, s.SweepHash, s.Params.Warmup, s.Params.Measure,
		s.Done, s.Total, s.Leased, s.Pending, s.Exhausted, s.Retries)
	if s.Quarantined > 0 {
		fmt.Printf("  %d corrupt cell files quarantined by the coordinator's store this run\n", s.Quarantined)
	}
	if h := s.Health; h != nil {
		fmt.Printf("  health: %.2f cells/s over %.1fs window (%d done, %d leases granted, %d expired, %d failed)\n",
			h.CellsPerSec, float64(h.WindowMs)/1e3, h.CellsDone, h.LeasesGranted, h.LeasesExpired, h.LeasesFailed)
		if h.SLO != nil {
			state := "met"
			if !h.SLO.Met {
				state = "BREACHED"
			}
			fmt.Printf("  cell SLO p%g <= %dus: %s (attained %.4f over %d cells, burn %.2fx)\n",
				h.SLO.Quantile*100, h.SLO.Target, state, h.SLO.Attained, h.SLO.Observations, h.SLO.Burn)
		}
	}
	if s.Draining {
		fmt.Println("  coordinator is draining: no new leases")
	}
	for _, l := range s.Leases {
		fmt.Printf("  lease %s -> %s cells [%d,%d) age %dms expires %dms\n",
			l.LeaseID, l.Worker, l.Range[0], l.Range[1], l.AgeMs, l.ExpireMs)
	}
	for _, key := range s.MissingKeys {
		fmt.Printf("  exhausted %s\n", key)
	}
	if !s.Complete() {
		os.Exit(1)
	}
}

func cmdWork(args []string) {
	fs := flag.NewFlagSet("campaign work", flag.ExitOnError)
	var (
		coordinator = fs.String("coordinator", "", "coordinator base URL, e.g. http://host:8123")
		id          = fs.String("id", "", "worker name (default host:pid)")
		faultSpec   = fs.String("fault", "", "fault to self-inject, for chaos drills: kind[:after=N][:delay=D] (kinds: "+faults.KindList()+")")
		retryWindow = fs.Duration("retry-window", 0, "keep retrying an unreachable coordinator this long before giving up (0 = default)")
		flightPath  = fs.String("flightrec", "", "dump the worker's flight record here on failure (empty = disabled)")
	)
	fs.Parse(args)
	if *coordinator == "" {
		fatal(fmt.Errorf("work needs -coordinator URL"))
	}
	if *id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}

	w := &coord.Worker{
		ID:        *id,
		Transport: &coord.HTTPTransport{Base: *coordinator},
		// The grant carries the campaign's measurement protocol, so workers
		// need no -quick/-warmup/-measure flags: they adopt whatever the
		// coordinator's store was opened with. Cells carry their own
		// execution mode, so sampled campaigns need no worker flag either.
		NewRunner: func(p campaign.Params) (campaign.Runner, error) {
			s := experiments.NewSuite()
			s.Runner.Warmup = p.Warmup
			s.Runner.Measure = p.Measure
			s.Runner.Seed = p.Seed
			return s, nil
		},
		RetryWindow: *retryWindow,
	}
	if *flightPath != "" {
		w.Flight = obs.NewFlightRecorder(256)
	}
	dumpWorkerFlight := func(reason string) {
		if *flightPath == "" {
			return
		}
		if err := w.Flight.WriteFile(*flightPath, reason); err != nil {
			fmt.Fprintln(os.Stderr, "work: writing flight record:", err)
			return
		}
		fmt.Fprintf(os.Stderr, "work: %s: wrote flight record %s (%d events)\n", *id, *flightPath, w.Flight.Len())
	}
	if *faultSpec != "" {
		f, err := faults.Parse(*faultSpec)
		if err != nil {
			fatal(err)
		}
		in := faults.NewInjector(f)
		w.Hooks = in.Hooks()
		w.Transport = in.Wrap(w.Transport)
		fmt.Fprintf(os.Stderr, "work: %s: injecting fault %s\n", *id, f)
	}

	err := w.Run()
	fmt.Fprintf(os.Stderr, "work: %s: %d cells computed, %d reported missing by coordinator\n",
		*id, w.Cells, w.Missing)
	if errors.Is(err, coord.ErrKilled) {
		// The injected crash: die abruptly, mid-lease, without a Fail call —
		// exactly what a SIGKILLed or OOM-killed worker looks like.
		fmt.Fprintf(os.Stderr, "work: %s: killed by injected fault\n", *id)
		dumpWorkerFlight("killed by injected fault")
		os.Exit(137)
	}
	if err != nil {
		dumpWorkerFlight("worker failed: " + err.Error())
		fatal(err)
	}
	if w.Missing > 0 {
		os.Exit(1)
	}
}
