// The remote side of a coordinated campaign: `work` pulls leases from a
// `campaign run -addr` coordinator, simulates cells and streams results
// home; `status -coordinator` reports a live coordinator's progress.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dcra/internal/campaign"
	"dcra/internal/coord"
	"dcra/internal/coord/faults"
	"dcra/internal/experiments"
)

// coordinatorStatus queries a live coordinator and renders its progress
// report to stdout; `campaign status -coordinator URL`. It returns
// errIncomplete while the campaign is incomplete, so scripts can poll it.
func coordinatorStatus(url string, stdout io.Writer) error {
	t := &coord.HTTPTransport{Base: url}
	s, err := t.Status()
	if err != nil {
		return fmt.Errorf("querying coordinator %s: %w", url, err)
	}
	fmt.Fprintf(stdout, "campaign: %s (sweep %s, warmup %d, measure %d): %d/%d cells done, %d leased, %d pending, %d exhausted, %d retries\n",
		s.Campaign, s.SweepHash, s.Params.Warmup, s.Params.Measure,
		s.Done, s.Total, s.Leased, s.Pending, s.Exhausted, s.Retries)
	if s.Quarantined > 0 {
		fmt.Fprintf(stdout, "  %d corrupt cell files quarantined by the coordinator's store this run\n", s.Quarantined)
	}
	if h := s.Health; h != nil {
		fmt.Fprintf(stdout, "  health: %.2f cells/s over %.1fs window (%d done, %d leases granted, %d expired, %d failed)\n",
			h.CellsPerSec, float64(h.WindowMs)/1e3, h.CellsDone, h.LeasesGranted, h.LeasesExpired, h.LeasesFailed)
		if h.SLO != nil {
			state := "met"
			if !h.SLO.Met {
				state = "BREACHED"
			}
			fmt.Fprintf(stdout, "  cell SLO p%g <= %dus: %s (attained %.4f over %d cells, burn %.2fx)\n",
				h.SLO.Quantile*100, h.SLO.Target, state, h.SLO.Attained, h.SLO.Observations, h.SLO.Burn)
		}
	}
	if s.Draining {
		fmt.Fprintln(stdout, "  coordinator is draining: no new leases")
	}
	for _, l := range s.Leases {
		fmt.Fprintf(stdout, "  lease %s -> %s cell %s age %dms expires %dms\n",
			l.LeaseID, l.Worker, l.Key, l.AgeMs, l.ExpireMs)
	}
	for _, key := range s.MissingKeys {
		fmt.Fprintf(stdout, "  exhausted %s\n", key)
	}
	if !s.Complete() {
		return errIncomplete
	}
	return nil
}

func cmdWork(args []string) {
	fs := flag.NewFlagSet("campaign work", flag.ExitOnError)
	var (
		coordinator = fs.String("coordinator", "", "coordinator base URL, e.g. http://host:8123")
		id          = fs.String("id", "", "worker name (default host:pid)")
		faultSpec   = fs.String("fault", "", "fault to self-inject, for chaos drills: kind[:after=N][:delay=D] (kinds: "+faults.KindList()+")")
		retryWindow = fs.Duration("retry-window", 0, "keep retrying an unreachable coordinator this long before giving up (0 = default)")
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
		// need no -warmup/-measure flags: they adopt whatever the
		// coordinator's store was opened with.
		NewRunner:   func(p campaign.Params) (campaign.Runner, error) { return workerSuite(p), nil },
		RetryWindow: *retryWindow,
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
		os.Exit(137)
	}
	if err != nil {
		fatal(err)
	}
	if w.Missing > 0 {
		os.Exit(1)
	}
}

// workerSuite builds the suite a worker computes cells with under protocol
// p. It has no store (the coordinator owns it) and no mode: cells carry
// their own execution mode and sampling schedule.
func workerSuite(p campaign.Params) *experiments.Suite {
	s := experiments.NewSuite()
	s.Runner.Warmup, s.Runner.Measure, s.Runner.Seed = p.Warmup, p.Measure, p.Seed
	return s
}
