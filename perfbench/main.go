// Command perfbench is the repository's benchmark. It runs one of three
// closed-batch workloads — exact, sampled or campaign — through the public
// APIs of the simulator's layers, checks the outputs, and prints the
// end-to-end metrics, or with -trace 1 the per-layer metrics, as the last
// line of its standard output: one JSON object with the keys correct,
// attempted, failed and metrics. README.md describes the workloads, the
// metrics and how to run it; run.sh builds and runs it from a checkout.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dcra/internal/campaign"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the run's result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times a run measures set-up; it reports the median.
const setupReps = 15

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: exact, sampled or campaign")
		seedArg = fs.Uint64("seed", 0, "workload seed offset: seed n runs workload seed 0x5eeddc2a+n")
		seconds = fs.Int("seconds", 20, "measure whole passes until this many seconds have passed (at least one)")
		traceOn = fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		perturb = fs.Bool("perturb", false, "nudge one result by one ulp before checking (the check must then fail)")
		probe   = fs.Bool("setup-probe", false, "internal: set the workload up, print the time, tear it down")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name != "exact" && *name != "sampled" && *name != "campaign" {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want exact, sampled or campaign)\n", *name)
		return 2
	}
	if err := os.MkdirAll(scratchDir("tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(scratchDir("tmp"), "run-*")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: defaultSeed + *seedArg, dir: dir}
	if *probe {
		return setupProbe(*name, e, stdout, stderr)
	}
	rs, err := openRecords()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rs.readOnly = *perturb
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{name: *name, e: e, seedArg: *seedArg, rs: rs, g: g, perturb: *perturb, log: stderr}
	var out output
	if *traceOn == 1 {
		out, err = b.traced()
	} else {
		out, err = b.untraced(time.Duration(*seconds) * time.Second)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
	}
	if out.Metrics == nil {
		out.Metrics = map[string]metric{}
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stderr, "%-30s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, jerr := json.Marshal(out)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil || !out.Correct {
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	name    string
	e       *env
	seedArg uint64
	rs      records
	g       golden
	perturb bool
	log     io.Writer
}

// pass runs one pass of the workload, traced when t is set.
func (b *bench) pass(t *tracing) (*pass, error) {
	switch b.name {
	case "exact":
		if t != nil {
			return t.localPass(b.e, append(figure5Cells(), schedCells()...), campaign.ModeExact, renderFigure5, renderSched)
		}
		return exactPass(b.e)
	case "sampled":
		if t != nil {
			return t.localPass(b.e, sampledCells(), campaign.ModeSampled, renderFigure5)
		}
		return sampledPass(b.e)
	}
	return campaignPass(b.e, t)
}

// failure is the result line of a run whose work or checks failed: the
// counts and no metrics.
func failure(passes ...*pass) output {
	var out output
	for _, p := range passes {
		if p != nil {
			out.Attempted += p.attempted
			out.Failed += p.failed
		}
	}
	out.Attempted = max(out.Attempted, 1)
	return out
}

// untraced measures whole passes until the given time has passed, checks
// them and reports the end-to-end metrics.
func (b *bench) untraced(d time.Duration) (output, error) {
	var cal calibration
	cal.block()
	setup, err := b.setupSeconds()
	if err != nil {
		return failure(), err
	}
	// Another pass starts only when, at the mean pass time so far, it would
	// end within d, so that a run lasts about d whatever its pass time.
	var passes []*pass
	for t0 := time.Now(); len(passes) == 0 || time.Since(t0)*time.Duration(len(passes)+1)/time.Duration(len(passes)) <= d; {
		p, err := b.pass(nil)
		if err != nil {
			return failure(append(passes, p)...), err
		}
		passes = append(passes, p)
		cal.block()
		if p.cal != nil {
			fmt.Fprintf(b.log, "perfbench: pass %d: %.3f s, calibration slice median %.4f ms\n", len(passes), p.wall.Seconds(), median(p.cal.sliceMs))
		} else {
			fmt.Fprintf(b.log, "perfbench: pass %d: %.3f s\n", len(passes), p.wall.Seconds())
		}
	}
	if err := b.verify(passes); err != nil {
		return failure(passes...), err
	}
	// A pass's host times are scaled by the slices timed between its cells.
	// On campaign, whose workers keep both cores busy, they are scaled by the
	// blocks timed between passes, except the wall time: the workers'
	// heartbeat sleeps set it, not the host's speed, so it stays raw.
	var walls, cells, rawWalls, rawCells []float64
	out := output{Correct: true}
	for _, p := range passes {
		f, wallF := cal.scale(), 1.0
		if p.cal != nil {
			f = p.cal.scale()
			wallF = f
		}
		walls = append(walls, p.wall.Seconds()*wallF)
		rawWalls = append(rawWalls, p.wall.Seconds())
		for _, ms := range p.cellMs {
			cells = append(cells, ms*f)
		}
		rawCells = append(rawCells, p.cellMs...)
		out.Attempted += p.attempted
		out.Failed += p.failed
	}
	if hp := highestPercentile(len(cells)); hp < 90 {
		return failure(passes...), fmt.Errorf("%d cell samples support only p%g, not p90", len(cells), hp)
	}
	out.Metrics = map[string]metric{
		"wall_s":      {median(walls), "s"},
		"setup_s":     {setup * cal.scale(), "s"},
		"cell_ms_p50": {percentile(cells, 50), "ms"},
		"cell_ms_p90": {percentile(cells, 90), "ms"},
	}
	fmt.Fprintf(b.log, "perfbench: %s seed %d: %d passes, %d cells\n", b.name, b.e.seed, len(passes), len(cells))
	fmt.Fprintf(b.log, "perfbench: calibration slice median %.4f ms, scale %.4f; raw wall %.4f s, setup %.6f s, cell p50 %.3f ms, p90 %.3f ms\n",
		median(cal.sliceMs), cal.scale(), median(rawWalls), setup, percentile(rawCells, 50), percentile(rawCells, 90))
	return out, nil
}

// paperGains are the paper's DCRA Hmean gains over each Figure 5 policy.
var paperGains = map[string]float64{"ICOUNT": 18, "DG": 41, "FLUSH++": 4}

// paperErr is the mean absolute difference, in percentage points, between
// measured and published Hmean gains.
func paperErr(gains map[string]float64) float64 {
	var sum float64
	for pol, want := range paperGains {
		sum += math.Abs(gains[pol] - want)
	}
	return sum / float64(len(paperGains))
}

// verify runs the correctness gate: no failed operation, every pass of the
// run and every earlier run of this build and seed produce the same
// digests, the golden outputs on the default seed, and on campaign a store
// holding every cell and a render byte-identical to exact's.
func (b *bench) verify(passes []*pass) error {
	p := passes[0]
	if b.perturb {
		p.gains["ICOUNT"] = math.Nextafter(p.gains["ICOUNT"], math.Inf(1))
		p.digests["figure5"] = digest(p.digests["figure5"])
	}
	for _, q := range passes {
		if q.failed > 0 {
			return fmt.Errorf("%d of %d operations failed", q.failed, q.attempted)
		}
		if len(q.digests) != len(p.digests) {
			return fmt.Errorf("passes produced different digest sets")
		}
		if err := sameDigests("first pass's", p.digests, q.digests); err != nil {
			return err
		}
	}
	for name, d := range p.digests {
		fmt.Fprintf(b.log, "perfbench: %s digest %s %s\n", b.name, name, d)
	}
	for _, pol := range []string{"ICOUNT", "DG", "FLUSH++"} {
		if v, ok := p.gains[pol]; ok {
			fmt.Fprintf(b.log, "perfbench: %s Hmean gain over %s %s\n", b.name, pol, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	if err := b.g.check(b.name, b.e.seed, p); err != nil {
		return err
	}
	if err := b.rs.matchOrSave(b.name, b.e.seed, p); err != nil {
		return err
	}
	if b.name != "campaign" {
		return nil
	}
	ref, err := b.reference("exact")
	if err != nil {
		return err
	}
	for _, name := range []string{"figure5", "cells"} {
		if p.digests[name] != ref.Digests[name] {
			return fmt.Errorf("campaign's %s digest %.12s differs from exact's %.12s", name, p.digests[name], ref.Digests[name])
		}
	}
	return nil
}

// reference returns the record of an earlier exact or sampled run of this
// build and seed, computing and recording it now, outside any timed region,
// when there is none.
func (b *bench) reference(workload string) (*record, error) {
	r, err := b.rs.load(workload, b.e.seed)
	if err != nil || r != nil {
		return r, err
	}
	fmt.Fprintf(b.log, "perfbench: computing the %s reference for seed %d\n", workload, b.e.seed)
	var p *pass
	if workload == "exact" {
		p, err = exactReference(b.e)
	} else {
		p, err = sampledPass(b.e)
	}
	if err != nil {
		return nil, err
	}
	if err := b.rs.matchOrSave(workload, b.e.seed, p); err != nil {
		return nil, err
	}
	return &record{Digests: p.digests, Cells: p.cells}, nil
}

// traced runs the workload once untraced and once traced, with a CPU
// profile of the traced pass, checks both, times the micro rows and prints
// the per-layer metrics. The trace and the profile are written under
// .bench_build/perfbench/out/.
func (b *bench) traced() (output, error) {
	untraced, err := b.pass(nil)
	if err != nil {
		return failure(untraced), err
	}
	if err := b.verify([]*pass{untraced}); err != nil {
		return failure(untraced), err
	}
	t := newTracing()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return failure(untraced), err
	}
	tp, err := b.pass(t)
	pprof.StopCPUProfile()
	if err != nil {
		return failure(untraced, tp), err
	}
	if len(tp.digests) != len(untraced.digests) {
		return failure(untraced, tp), fmt.Errorf("traced pass produced different digest sets")
	}
	if err := sameDigests("untraced pass's", untraced.digests, tp.digests); err != nil {
		return failure(untraced, tp), fmt.Errorf("traced results differ from untraced: %w", err)
	}
	shares, err := packageShares(prof.Bytes())
	if err != nil {
		return failure(untraced, tp), err
	}
	mr, err := measureMicro(b.e.seed)
	if err != nil {
		return failure(untraced, tp), err
	}
	par, err := b.parity(untraced)
	if err != nil {
		return failure(untraced, tp), err
	}
	base := scratchDir("out", fmt.Sprintf("%s-seed%d", b.name, b.seedArg))
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return failure(untraced, tp), err
	}
	if err := t.tr.WriteFile(base + ".trace.json"); err != nil {
		return failure(untraced, tp), err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return failure(untraced, tp), err
	}
	fmt.Fprintf(b.log, "perfbench: wrote %s.trace.json (%d events) and %s.cpu.pprof\n", base, t.tr.Len(), base)
	return output{
		Correct:   true,
		Attempted: untraced.attempted + tp.attempted,
		Failed:    untraced.failed + tp.failed,
		Metrics:   t.layerMetrics(untraced, tp, shares, mr, par),
	}, nil
}

// parity compares the run's seed's sampled and exact Figure 5 cells, taking
// whichever side the run did not compute from an earlier run's record.
func (b *bench) parity(untraced *pass) (parity, error) {
	exact, sampled := untraced.cells, untraced.cells
	if b.name == "sampled" {
		r, err := b.reference("exact")
		if err != nil {
			return parity{}, err
		}
		exact = r.Cells
	} else {
		r, err := b.reference("sampled")
		if err != nil {
			return parity{}, err
		}
		sampled = r.Cells
	}
	return computeParity(exact, sampled)
}

// setupSeconds starts the benchmark setupReps times in set-up-probe mode and
// returns the median time from process start to a set-up workload.
func (b *bench) setupSeconds() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		out, err := exec.Command(exe, "-setup-probe", "-workload", b.name, "-seed", strconv.FormatUint(b.seedArg, 10)).Output()
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("set-up probe printed %q", out)
		}
		xs = append(xs, time.Unix(0, ns).Sub(t0).Seconds())
	}
	return median(xs), nil
}

// setupProbe sets the workload up as a run does before its first pass,
// prints the wall-clock time in nanoseconds, and tears it down.
func setupProbe(name string, e *env, stdout, stderr io.Writer) int {
	teardown := func() {}
	switch name {
	case "campaign":
		r, err := newRig(e, nil)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		teardown = r.close
	case "sampled":
		e.suite(campaign.ModeSampled)
	default:
		e.suite(campaign.ModeExact)
	}
	fmt.Fprintln(stdout, time.Now().UnixNano())
	teardown()
	return 0
}

// maxRSSMB returns the process's peak resident set size in MB (10^6 bytes).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}
