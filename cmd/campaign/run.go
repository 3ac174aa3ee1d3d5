// `campaign run`: the one command that computes and renders an experiment.
// A coordinator leases the sweep's missing cells to GOMAXPROCS in-process
// workers or, with -addr, to remote `campaign work` processes; the
// experiment is then rendered strictly from the store.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/coord"
	"dcra/internal/experiments"
	"dcra/internal/obs"
)

// runOptions is `campaign run`'s resolved command line.
type runOptions struct {
	exp          string
	store        string
	csv          string // CSV artifact directory; defaults to <store>/csv
	requireStore bool
	trace        string

	// The measurement protocol.
	sampled         bool
	warmup, measure uint64

	// addr, when set, serves the coordinator over HTTP to remote workers
	// instead of computing with local ones.
	addr     string
	coord    coord.Options // Checkpoint defaults per sweep (runCampaign)
	deadline time.Duration
	grace    time.Duration
}

// parseRunFlags resolves `campaign run`'s flags. Flag errors are reported
// on stderr by the flag package and return errUsage.
func parseRunFlags(args []string, stderr io.Writer) (runOptions, error) {
	fs := flag.NewFlagSet("campaign run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o runOptions
	fs.StringVar(&o.exp, "exp", "", "experiment key (tab1,fig2,... — see EXPERIMENTS.md)")
	fs.StringVar(&o.store, "store", "", "persistent result store directory (required)")
	fs.StringVar(&o.csv, "csv", "", "CSV artifact directory (default <store>/csv)")
	fs.BoolVar(&o.requireStore, "require-store", false, "fail, naming the missing cells, unless the store already holds every cell")
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace-event JSON file of the run (load in Perfetto / chrome://tracing)")
	fs.Uint64Var(&o.warmup, "warmup", 0, "override warmup cycles")
	fs.Uint64Var(&o.measure, "measure", 0, "override measured cycles")
	fs.BoolVar(&o.sampled, "sampled", false,
		"SMARTS-style sampled execution for workload cells, schedule derived from the protocol and stamped into cell keys (bench/sched cells stay exact; stored exact results are preferred)")
	fs.StringVar(&o.addr, "addr", "", "serve leases over HTTP on this address to `campaign work` processes instead of computing with local workers")
	fs.DurationVar(&o.coord.LeaseTTL, "ttl", 0, "lease TTL; a lease with no heartbeat for this long is reclaimed (0 = default)")
	fs.DurationVar(&o.coord.BackoffBase, "backoff", 0, "base retry backoff, doubled per attempt (0 = default)")
	fs.DurationVar(&o.deadline, "deadline", 0, "campaign deadline; on expiry drain leases and report what is missing (0 = none)")
	fs.DurationVar(&o.grace, "grace", 30*time.Second, "drain grace: how long to wait for in-flight leases, and for live remote workers to hear the campaign is over")
	fs.StringVar(&o.coord.Checkpoint, "checkpoint", "", "coordinator checkpoint file (default <store>/coordinator-<sweep hash>.json)")
	if err := parseFlags(fs, args); err != nil {
		return o, err
	}
	if o.csv == "" && o.store != "" {
		o.csv = filepath.Join(o.store, "csv")
	}
	return o, nil
}

// suite builds the render suite for o's measurement protocol.
func (o runOptions) suite() *experiments.Suite {
	s := experiments.NewSuite()
	if o.warmup > 0 {
		s.Runner.Warmup = o.warmup
	}
	if o.measure > 0 {
		s.Runner.Measure = o.measure
	}
	if o.sampled {
		// Derived after the warmup/measure overrides so the schedule tracks
		// the protocol actually being run; stamped on the suite, it becomes
		// part of every sampled cell's content key.
		s.Mode = campaign.ModeSampled
		s.Sampling = samplingFor(s.StoreParams())
	}
	return s
}

// runCampaign computes the cells of o's experiment that the store lacks
// and renders the experiment from the store: tables and CSV paths to stdout,
// coordinator log lines to stderr.
func runCampaign(o runOptions, stdout, stderr io.Writer) error {
	spec, err := experiments.SpecByKey(o.exp)
	if err != nil {
		return err
	}
	if o.store == "" {
		return errors.New("run needs -store DIR")
	}
	s := o.suite()
	st, err := campaign.Open(o.store, s.StoreParams())
	if err != nil {
		return err
	}
	// The render reads every cell from the store: a hole there is an
	// error, never a quiet resimulation.
	s.Store, s.RequireStore = st, true
	sweep := experiments.ApplyModeSampling(spec.Sweep(), s.Mode, s.Sampling)

	// The coordinator always carries a metrics registry (served at /metrics
	// with -addr); span tracing only exists under -trace.
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if o.trace != "" {
		tracer = obs.NewTracer()
		// Written on every return: the lease spans of a campaign that ran
		// out of budget are what its post-mortem wants.
		defer func() {
			if err := tracer.WriteFile(o.trace); err != nil {
				fmt.Fprintln(stderr, "campaign: writing trace:", err)
				return
			}
			fmt.Fprintf(stdout, "campaign: wrote trace %s (%d events)\n", o.trace, tracer.Len())
		}()
	}
	s.Instrument(reg, tracer)

	logger := log.New(stderr, "campaign: ", log.LstdFlags)
	opts := o.coord
	if opts.Checkpoint == "" {
		// One checkpoint per sweep, so a checkpoint left by one campaign
		// never blocks another sweep on the same store.
		opts.Checkpoint = filepath.Join(o.store, "coordinator-"+sweep.Hash()+".json")
	}
	if o.addr == "" {
		// Loopback calls make no round trip: let idle workers poll often, so
		// they leave within a poll of the campaign's end.
		opts.PollInterval = 10 * time.Millisecond
	}
	opts.Logf, opts.Obs, opts.Tracer = logger.Printf, reg, tracer
	co, err := coord.New(spec.Key, sweep, st, opts)
	if err != nil {
		return err
	}
	start := co.Status()
	if o.requireStore && !start.Complete() {
		missing := co.Missing()
		for _, c := range missing {
			fmt.Fprintf(stderr, "campaign: missing %s\n", c)
		}
		return fmt.Errorf("-require-store: store %s lacks %d of %d cells", o.store, len(missing), start.Total)
	}

	// Local workers leave once the coordinator has nothing left to hand
	// out, so the first one to leave ends the wait; remote workers report
	// only through the listener.
	var workerExit <-chan error
	var serveErr chan error
	if o.addr != "" {
		ln, err := net.Listen("tcp", o.addr)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: coord.NewHTTPHandler(co)}
		serveErr = make(chan error, 1)
		go func() { serveErr <- srv.Serve(ln) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		logger.Printf("serving %s on %s: %d/%d cells already in store", spec.Key, ln.Addr(), start.Done, start.Total)
	} else {
		n := runtime.GOMAXPROCS(0)
		exits, wait := startLocalWorkers(co, n, st.Params(), reg, tracer)
		defer wait()
		workerExit = exits
		logger.Printf("computing %s with %d local workers: %d/%d cells already in store", spec.Key, n, start.Done, start.Total)
	}

	// Wait for completion, the deadline, or a shutdown signal. On deadline
	// or signal the coordinator stops issuing leases, gives in-flight
	// leases a grace period to stream home, then reports the missing cells.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)
	var timeout <-chan time.Time
	if o.deadline > 0 {
		timeout = time.After(o.deadline)
	}
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	aborted := ""
wait:
	for {
		select {
		case <-tick.C:
			if co.Status().Complete() {
				break wait
			}
		case err := <-workerExit:
			if err != nil {
				co.Drain() // the other workers stop after their current cell
				return err
			}
			break wait
		case <-timeout:
			aborted = "campaign deadline reached"
		case s := <-sig:
			aborted = s.String() + " received"
		case err := <-serveErr:
			return fmt.Errorf("coordinator HTTP server: %w", err)
		}
		if aborted != "" {
			logger.Printf("%s, draining (grace %s)", aborted, o.grace)
			co.Drain()
			co.WaitIdle(o.grace)
			break wait
		}
	}
	if aborted == "" && o.addr != "" {
		// Let live remote workers hear StateDone before the listener goes
		// away; a worker parked between polls would otherwise find the port
		// closed and retry into its retry window.
		co.Drain()
		co.WaitIdle(o.grace)
	}

	status := co.Status()
	missing := co.Missing()
	logger.Printf("campaign %s: %d/%d cells complete, %d missing, %d retries",
		spec.Key, status.Done, status.Total, len(missing), status.Retries)
	if len(missing) > 0 {
		for _, c := range missing {
			fmt.Fprintf(stderr, "campaign: missing %s (out of retry budget or deadline)\n", c)
		}
		return fmt.Errorf("%d of %d cells missing; store %s holds the completed subset (re-run to resume)",
			len(missing), status.Total, o.store)
	}

	tables, err := spec.Render(s)
	if err != nil {
		if errors.Is(err, experiments.ErrMissingCell) {
			// A corrupt cell file is quarantined on read, so a re-run
			// recomputes it.
			return fmt.Errorf("store lost cells between completion and render (re-run to recompute them): %w", err)
		}
		return err
	}
	for _, rt := range tables {
		rt.Table.Render(stdout)
	}
	paths, err := experiments.WriteCSVs(o.csv, tables)
	if err != nil {
		return err
	}
	for _, p := range paths {
		fmt.Fprintf(stdout, "campaign: wrote %s\n", p)
	}
	fmt.Fprintf(stdout, "campaign: %s: %d cells rendered from store (%d computed, %d already stored, %d retries)\n",
		spec.Key, status.Total, status.Done-start.Done, start.Done, status.Retries)
	return nil
}

// startLocalWorkers serves co with n in-process workers on one loopback
// transport. Each worker's Run result arrives on exits; wait returns once
// every worker has left, which each does when the coordinator answers that
// the campaign is over. The workers share one suite, built as `campaign
// work` builds its own: one machine pool, stream-checkpoint store and
// baseline memo, and a cell memo a speculative twin waits on instead of
// recomputing. The suite carries telemetry only when the run is traced.
func startLocalWorkers(co *coord.Coordinator, n int, p campaign.Params, reg *obs.Registry, tr *obs.Tracer) (exits <-chan error, wait func()) {
	shared := workerSuite(p)
	if tr != nil {
		shared.Instrument(reg, tr)
	}
	lb := coord.NewLoopback(co)
	ch := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &coord.Worker{
			ID:        fmt.Sprintf("local-%d", i),
			Transport: lb,
			NewRunner: func(campaign.Params) (campaign.Runner, error) { return shared, nil },
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch <- w.Run()
		}()
	}
	return ch, wg.Wait
}
