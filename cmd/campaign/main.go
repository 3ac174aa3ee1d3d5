// Command campaign runs the paper's evaluation as declarative sweeps backed
// by a persistent on-disk result store: a sweep's cells are computed once,
// in-process or by a fleet of workers, and every later render reads them
// back bit-identically instead of resimulating. See EXPERIMENTS.md for the
// experiment index.
//
// Usage:
//
//	campaign run -exp fig5 [-store DIR]            # compute + render
//	campaign status -exp fig5 -store DIR
//	campaign render -exp fig5 -store DIR           # render + CSV artifacts in <store>/csv
//	campaign gc -store DIR [-dry-run]              # prune cells no sweep enumerates
//
// Re-running `campaign run -exp fig5 -store DIR` renders every table from
// the store without resimulating (enforceable with -require-store). All
// invocations of one campaign must agree on the measurement protocol
// (-quick/-warmup/-measure); the store manifest refuses mismatches. With
// -sampled, workload cells run the adaptive SMARTS-style schedule derived
// from that protocol (sample.DeriveAdaptive), stamped into their keys.
//
// To spread a sweep across hosts, run a coordinator and any number of
// workers:
//
//	campaign coordinate -addr :8123 -exp fig5 -store DIR   # lease server
//	campaign work -coordinator http://host:8123            # any number, anywhere
//	campaign status -coordinator http://host:8123          # live progress
//
// The coordinator leases cell ranges to workers, reclaims leases whose
// heartbeats lapse, retries failed cells with backoff, checkpoints its retry
// state for crash-safe resumption, and renders the experiment once every
// cell has streamed home. See EXPERIMENTS.md ("Distributed campaigns").
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/experiments"
	"dcra/internal/obs"
	"dcra/internal/sample"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "status":
		cmdStatus(os.Args[2:])
	case "render":
		cmdRender(os.Args[2:])
	case "gc":
		cmdGC(os.Args[2:])
	case "coordinate":
		cmdCoordinate(os.Args[2:])
	case "work":
		cmdWork(os.Args[2:])
	case "top":
		cmdTop(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: campaign <run|status|render|gc|coordinate|work|top> [flags]

protocol flags: [-quick] [-warmup N -measure N] [-sampled]

  run        -exp KEY [protocol flags] [-store DIR] [-require-store]
             [-trace FILE]
  status     -exp KEY -store DIR [-sampled] | -coordinator URL
  render     -exp KEY [-csv DIR] [-store DIR] [protocol flags] [-require-store]
             [-trace FILE]
  gc         -store DIR [-dry-run]
  coordinate -addr HOST:PORT -exp KEY -store DIR [protocol flags]
             [-range N -ttl D -retries N -backoff D -backoff-max D]
             [-speculate D -deadline D -grace D -checkpoint FILE -seed N]
             [-health-every D -cell-slo-p Q -cell-slo-ms N -cell-slo-window N]
             [-trace FILE]
  work       -coordinator URL [-id NAME] [-fault SPEC] [-retry-window D]
             [-flightrec FILE]
  top        -coordinator URL [-interval D] [-n N]`)
	os.Exit(2)
}

// suiteFlags registers the measurement-protocol flags shared by run, render
// and coordinate.
type suiteFlags struct {
	quick   *bool
	warmup  *uint64
	measure *uint64
	sampled *bool
	trace   *string
}

func addSuiteFlags(fs *flag.FlagSet) suiteFlags {
	return suiteFlags{
		quick:   fs.Bool("quick", false, "reduced measurement windows (~6x faster)"),
		warmup:  fs.Uint64("warmup", 0, "override warmup cycles"),
		measure: fs.Uint64("measure", 0, "override measured cycles"),
		sampled: fs.Bool("sampled", false,
			"SMARTS-style sampled execution for workload cells, schedule derived from the protocol and stamped into cell keys (bench/sched cells stay exact; renders prefer stored exact results)"),
		trace: fs.String("trace", "",
			"write a Chrome trace-event JSON file of the run (load in Perfetto / chrome://tracing)"),
	}
}

// instrument attaches telemetry to the suite when -trace is set and returns
// the function that writes the trace file at the end of the command. Without
// -trace it attaches nothing — the hot paths stay on their zero-overhead
// disabled branches — and the returned flush is a no-op. Call after the
// suite's Store is attached so store telemetry is covered too.
func (sf suiteFlags) instrument(s *experiments.Suite) (flush func()) {
	if *sf.trace == "" {
		return func() {}
	}
	tr := obs.NewTracer()
	s.Instrument(obs.NewRegistry(), tr)
	path := *sf.trace
	return func() {
		if err := tr.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "campaign: writing trace:", err)
			return
		}
		fmt.Printf("campaign: wrote trace %s (%d events)\n", path, tr.Len())
	}
}

func (sf suiteFlags) suite() *experiments.Suite {
	s := experiments.NewSuite()
	if *sf.quick {
		s = experiments.NewQuickSuite()
	}
	if *sf.warmup > 0 {
		s.Runner.Warmup = *sf.warmup
	}
	if *sf.measure > 0 {
		s.Runner.Measure = *sf.measure
	}
	if *sf.sampled {
		// Derived after the warmup/measure overrides so the schedule tracks
		// the protocol actually being run; stamped on the suite, it becomes
		// part of every sampled cell's content key.
		s.Mode = campaign.ModeSampled
		s.Sampling = samplingFor(s.StoreParams())
	}
	return s
}

// samplingFor is the sampling schedule of a measurement protocol: what
// -sampled stamps onto every sampled cell.
func samplingFor(p campaign.Params) config.SamplingConfig {
	return sample.DeriveAdaptive(p.Warmup, p.Measure).Config()
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("campaign run", flag.ExitOnError)
	var (
		exp          = fs.String("exp", "", "experiment key (tab1,fig2,... — see EXPERIMENTS.md)")
		storeDir     = fs.String("store", "", "persistent result store directory")
		requireStore = fs.Bool("require-store", false, "fail if any cell had to be simulated instead of loaded from the store")
		sflags       = addSuiteFlags(fs)
	)
	fs.Parse(args)

	spec, err := experiments.SpecByKey(*exp)
	if err != nil {
		fatal(err)
	}
	s := sflags.suite()
	if *storeDir != "" {
		st, err := campaign.Open(*storeDir, s.StoreParams())
		if err != nil {
			fatal(err)
		}
		s.Store = st
	}
	flush := sflags.instrument(s)
	renderExperiment(spec, s, "", *requireStore)
	flush()
}

// renderExperiment renders spec's tables to stdout — plus CSV artifacts
// when csvDir is set — then prints the cell summary and enforces
// -require-store. Shared by `run` and `render`.
func renderExperiment(spec experiments.Spec, s *experiments.Suite, csvDir string, requireStore bool) {
	tables, err := spec.Render(s)
	if err != nil {
		fatal(err)
	}
	for _, rt := range tables {
		rt.Table.Render(os.Stdout)
	}
	if csvDir != "" {
		paths, err := experiments.WriteCSVs(csvDir, tables)
		if err != nil {
			fatal(err)
		}
		for _, p := range paths {
			fmt.Printf("campaign: wrote %s\n", p)
		}
	}
	fmt.Printf("campaign: %s: %d cells (simulated %d, store hits %d)\n",
		spec.Key, len(spec.Sweep().Cells), s.Simulated(), s.StoreHits())
	if requireStore && s.Simulated() > 0 {
		fatal(fmt.Errorf("%d cells were simulated but -require-store demands a fully populated store", s.Simulated()))
	}
}

// cmdRender renders one experiment's tables and additionally writes each as
// a CSV artifact, by default next to the store (<store>/csv).
func cmdRender(args []string) {
	fs := flag.NewFlagSet("campaign render", flag.ExitOnError)
	var (
		exp          = fs.String("exp", "", "experiment key (tab1,fig2,... — see EXPERIMENTS.md)")
		storeDir     = fs.String("store", "", "persistent result store directory")
		csvDir       = fs.String("csv", "", "CSV artifact directory (default <store>/csv)")
		requireStore = fs.Bool("require-store", false, "fail if any cell had to be simulated instead of loaded from the store")
		sflags       = addSuiteFlags(fs)
	)
	fs.Parse(args)

	spec, err := experiments.SpecByKey(*exp)
	if err != nil {
		fatal(err)
	}
	if *csvDir == "" {
		if *storeDir == "" {
			fatal(fmt.Errorf("render needs -csv DIR (or -store DIR to default to <store>/csv)"))
		}
		*csvDir = filepath.Join(*storeDir, "csv")
	}
	s := sflags.suite()
	if *storeDir != "" {
		st, err := campaign.Open(*storeDir, s.StoreParams())
		if err != nil {
			fatal(err)
		}
		s.Store = st
	}
	flush := sflags.instrument(s)
	renderExperiment(spec, s, *csvDir, *requireStore)
	flush()
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
