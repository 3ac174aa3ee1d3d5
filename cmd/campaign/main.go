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
//	campaign status -coordinator http://host:8123          # live progress, health and cell SLO
//
// Either way the coordinator leases one cell at a time, reclaims leases
// whose heartbeats lapse, retries failed cells with backoff, checkpoints
// its retry state for crash-safe resumption (<store>/coordinator-<sweep
// hash>.json), and drains on Ctrl-C or -deadline. It ticks a health ring every 2s, judged against
// the -cell-slo-* objective, and an aborted campaign leaves its flight
// record in <store>/flightrec.json. See EXPERIMENTS.md ("Distributed
// campaigns", "Watching a fleet").
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/experiments"
	"dcra/internal/sample"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		o, err := parseRunFlags(os.Args[2:], os.Stderr)
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		if err != nil {
			os.Exit(2) // the flag package has reported it
		}
		if err := runCampaign(o, os.Stdout, os.Stderr); err != nil {
			fatal(err)
		}
	case "status":
		cmdStatus(os.Args[2:])
	case "gc":
		cmdGC(os.Args[2:])
	case "work":
		cmdWork(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: campaign <run|status|gc|work> [flags]

  run     -exp KEY -store DIR [-warmup N -measure N] [-sampled]
          [-csv DIR] [-require-store] [-trace FILE]
          [-addr HOST:PORT] [-ttl D -backoff D -deadline D -grace D]
          [-checkpoint FILE]
          [-cell-slo-p Q -cell-slo-ms N -cell-slo-window N]
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

// cmdGC prunes store cells whose keys no longer appear in any registered
// sweep — orphans left behind by spec changes, and sampled cells of the
// retired fixed protocol.
func cmdGC(args []string) {
	fs := flag.NewFlagSet("campaign gc", flag.ExitOnError)
	var (
		storeDir = fs.String("store", "", "persistent result store directory")
		dryRun   = fs.Bool("dry-run", false, "report stale cells without deleting them")
	)
	fs.Parse(args)
	if *storeDir == "" {
		fatal(fmt.Errorf("gc needs -store"))
	}
	st, err := campaign.OpenExisting(*storeDir)
	if err != nil {
		fatal(err)
	}
	keep := gcKeep(st.Params())
	removed, err := st.GC(keep, *dryRun)
	if err != nil {
		fatal(err)
	}
	verb := "deleted"
	if *dryRun {
		verb = "would delete"
	}
	for _, key := range removed {
		fmt.Printf("campaign: %s stale cell %s\n", verb, key)
	}
	fmt.Printf("campaign: %s %d stale cells (%d keys live across %d experiments)\n",
		verb, len(removed), len(keep), len(experiments.Specs()))
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

func cmdStatus(args []string) {
	fs := flag.NewFlagSet("campaign status", flag.ExitOnError)
	var (
		exp         = fs.String("exp", "", "experiment key")
		storeDir    = fs.String("store", "", "persistent result store directory")
		coordinator = fs.String("coordinator", "", "live coordinator URL to query instead of a store")
		sampled     = fs.Bool("sampled", false, "count the sampled variant of the sweep (schedule derived from the store's protocol)")
	)
	fs.Parse(args)
	if *coordinator != "" {
		coordinatorStatus(*coordinator)
		return
	}
	spec, err := experiments.SpecByKey(*exp)
	if err != nil {
		fatal(err)
	}
	if *storeDir == "" {
		fatal(fmt.Errorf("status needs -store or -coordinator"))
	}
	st, err := campaign.OpenExisting(*storeDir)
	if err != nil {
		fatal(err)
	}
	sweep := spec.Sweep()
	if *sampled {
		sweep = sampledSweep(sweep, st.Params())
	}
	present, missing := st.Count(sweep)
	p := st.Params()
	fmt.Printf("campaign: %s (sweep %s, warmup %d, measure %d): %d/%d cells in %s\n",
		spec.Key, sweep.Hash(), p.Warmup, p.Measure, present, present+len(missing), *storeDir)
	if n, err := st.CorruptCount(); err == nil && n > 0 {
		fmt.Printf("  %d corrupt cell files quarantined (*.corrupt under %s)\n", n, *storeDir)
	}
	for i, c := range missing {
		if i == 10 {
			fmt.Printf("  ... and %d more missing\n", len(missing)-10)
			break
		}
		fmt.Printf("  missing %s\n", c)
	}
	if len(missing) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaign:", err)
	os.Exit(1)
}
