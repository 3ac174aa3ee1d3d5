// Command campaign runs the paper's evaluation as declarative sweeps backed
// by a persistent on-disk result store: a sweep's cells are computed once,
// by local or remote workers, and every later render reads them back
// bit-identically instead of resimulating. See EXPERIMENTS.md for the
// experiment index.
//
// Usage:
//
//	campaign run -exp fig5 -store DIR              # compute what DIR lacks, render, CSVs in <store>/csv
//	campaign status -exp fig5 -store DIR
//	campaign gc -store DIR [-dry-run]              # prune cells no sweep enumerates
//
// `run` is the one command that computes and renders an experiment. A
// coordinator leases the sweep's missing cells to GOMAXPROCS in-process
// workers, then the experiment renders strictly from the store, so
// re-running it simulates nothing (enforceable with -require-store).
// Experiments run into one store share the cells their sweeps have in
// common. All invocations of one campaign must agree on the measurement
// protocol (-warmup/-measure; the quick protocol is -warmup 15000 -measure
// 60000); the store manifest refuses mismatches. With -sampled, workload
// cells run the adaptive SMARTS-style schedule derived from that protocol
// (sample.DeriveAdaptive), stamped into their keys.
//
// To spread a sweep across hosts, serve the coordinator instead of
// starting local workers, and run any number of workers:
//
//	campaign run -addr :8123 -exp fig5 -store DIR          # lease server, renders when complete
//	campaign work -coordinator http://host:8123            # any number, anywhere
//	campaign status -coordinator http://host:8123          # live progress
//
// Either way the coordinator leases one cell at a time, reclaims leases
// whose heartbeats lapse, retries failed cells with backoff under a
// per-run budget, and drains on Ctrl-C or -deadline. The store is the only
// state a campaign keeps, so re-running the same command after a crash, a
// drain or a cell given up on computes just the cells the store lacks. The
// coordinator logs every control-plane event (lease, expiry, retry,
// exhaustion, speculation, rejected payload, drain) to stderr, one line
// each. See EXPERIMENTS.md ("Distributed campaigns").
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/coord"
	"dcra/internal/experiments"
	"dcra/internal/sample"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		var o runOptions
		if o, err = parseRunFlags(os.Args[2:], os.Stderr); err == nil {
			err = runCampaign(o, os.Stdout, os.Stderr)
		}
	case "status":
		err = status(os.Args[2:], os.Stdout, os.Stderr)
	case "gc":
		err = gc(os.Args[2:], os.Stdout, os.Stderr)
	case "work":
		err = work(os.Args[2:], os.Stdout, os.Stderr)
	default:
		usage()
	}
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2) // the flag package has reported it
	case errors.Is(err, errIncomplete):
		os.Exit(1) // the report names what is missing
	case errors.Is(err, coord.ErrKilled):
		os.Exit(137) // an injected worker crash, reported by work
	default:
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: campaign <run|status|gc|work> [flags]

  run     -exp KEY -store DIR [-warmup N -measure N] [-sampled]
          [-csv DIR] [-require-store] [-trace FILE]
          [-addr HOST:PORT] [-ttl D -backoff D -deadline D -grace D]
  status  -exp KEY -store DIR [-sampled] | -coordinator URL
  gc      -store DIR [-dry-run]
  work    -coordinator URL [-id NAME] [-fault SPEC] [-retry-window D]`)
	os.Exit(2)
}

// samplingFor is the sampling schedule of a measurement protocol: what
// -sampled stamps onto every sampled cell.
func samplingFor(p campaign.Params) config.SamplingConfig {
	return sample.DeriveAdaptive(p.Warmup, p.Measure).Config()
}

// gc is `campaign gc`: it prunes store cells whose keys no longer appear in
// any registered sweep — orphans left behind by spec changes, and sampled
// cells of the retired fixed protocol — and reports them on stdout.
func gc(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("campaign gc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		storeDir = fs.String("store", "", "persistent result store directory")
		dryRun   = fs.Bool("dry-run", false, "report stale cells without deleting them")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *storeDir == "" {
		return errors.New("gc needs -store")
	}
	st, err := campaign.OpenExisting(*storeDir)
	if err != nil {
		return err
	}
	keep := gcKeep(st.Params())
	removed, err := st.GC(keep, *dryRun)
	if err != nil {
		return err
	}
	verb := "deleted"
	if *dryRun {
		verb = "would delete"
	}
	for _, key := range removed {
		fmt.Fprintf(stdout, "campaign: %s stale cell %s\n", verb, key)
	}
	fmt.Fprintf(stdout, "campaign: %s %d stale cells (%d keys live across %d experiments)\n",
		verb, len(removed), len(keep), len(experiments.Specs()))
	return nil
}

// gcKeep returns the cell keys `campaign gc` keeps in a store measured
// under p: every registered sweep's cells, exact and sampled under p's
// schedule. Anything else — a cell no sweep enumerates any more, or a
// sampled cell without a schedule (the retired fixed protocol's) — is
// garbage.
func gcKeep(p campaign.Params) map[string]bool {
	keep := make(map[string]bool)
	for _, sp := range experiments.Specs() {
		sweep := sp.Sweep()
		for _, c := range sweep.Cells {
			keep[c.Key()] = true
		}
		for _, c := range sampledSweep(sweep, p).Cells {
			keep[c.Key()] = true
		}
	}
	return keep
}

// sampledSweep is sweep as a -sampled campaign under protocol p enumerates
// it.
func sampledSweep(sweep campaign.Sweep, p campaign.Params) campaign.Sweep {
	return experiments.ApplyModeSampling(sweep, campaign.ModeSampled, samplingFor(p))
}

var (
	// errUsage reports a command line the flag package rejected; the flag
	// package has already printed why.
	errUsage = errors.New("invalid command line")
	// errIncomplete reports cells missing: `campaign status` found some, or
	// the coordinator told a `campaign work` process it could not compute
	// some. Its report names or counts them, and the command exits 1 so
	// scripts can poll it.
	errIncomplete = errors.New("campaign incomplete")
)

// parseFlags parses args into fs, returning errUsage for a rejected command
// line and flag.ErrHelp for -h.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

// status is `campaign status`: how much of an experiment's sweep a store
// holds or, with -coordinator, a live coordinator's progress. The report
// goes to stdout. It returns errIncomplete while cells are missing,
// errUsage for a rejected command line and flag.ErrHelp for -h.
func status(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("campaign status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp         = fs.String("exp", "", "experiment key")
		storeDir    = fs.String("store", "", "persistent result store directory")
		coordinator = fs.String("coordinator", "", "live coordinator URL to query instead of a store")
		sampled     = fs.Bool("sampled", false, "count the sampled variant of the sweep (schedule derived from the store's protocol)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *coordinator != "" {
		return coordinatorStatus(*coordinator, stdout)
	}
	spec, err := experiments.SpecByKey(*exp)
	if err != nil {
		return err
	}
	if *storeDir == "" {
		return errors.New("status needs -store or -coordinator")
	}
	st, err := campaign.OpenExisting(*storeDir)
	if err != nil {
		return err
	}
	sweep := spec.Sweep()
	if *sampled {
		sweep = sampledSweep(sweep, st.Params())
	}
	present, missing := st.Count(sweep)
	p := st.Params()
	fmt.Fprintf(stdout, "campaign: %s (sweep %s, warmup %d, measure %d): %d/%d cells in %s\n",
		spec.Key, sweep.Hash(), p.Warmup, p.Measure, present, present+len(missing), *storeDir)
	if n, err := st.CorruptCount(); err == nil && n > 0 {
		fmt.Fprintf(stdout, "  %d corrupt cell files quarantined (*.corrupt under %s)\n", n, *storeDir)
	}
	for i, c := range missing {
		if i == 10 {
			fmt.Fprintf(stdout, "  ... and %d more missing\n", len(missing)-10)
			break
		}
		// Count reads a cell whose file Get cannot read as missing; say why.
		if _, _, err := st.Get(c); err != nil {
			fmt.Fprintf(stdout, "  missing %s: %v\n", c, err)
			continue
		}
		fmt.Fprintf(stdout, "  missing %s\n", c)
	}
	if len(missing) > 0 {
		return errIncomplete
	}
	return nil
}
