package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/experiments"
	"dcra/internal/sample"
	"dcra/internal/sim"
)

// The quick protocol of every committed BENCH_PR*.json point.
const (
	warmupCycles  = 15_000
	measureCycles = 60_000
)

// defaultSeed is the workload seed of `-seed 0`; seed n runs defaultSeed+n.
const defaultSeed = 0x5eed_dc2a

// env is what every pass of one run shares: the workload seed and the
// directory the run may write to.
type env struct {
	seed uint64
	dir  string // scratch space for stores, removed when the run ends
}

func (e *env) params() campaign.Params {
	return campaign.Params{Warmup: warmupCycles, Measure: measureCycles, Seed: e.seed}
}

// samplingConfig is the sampled workload's schedule, stamped onto its cells.
func samplingConfig() config.SamplingConfig {
	return sample.DeriveAdaptive(warmupCycles, measureCycles).Config()
}

// suite builds a fresh suite (empty pool, memo and baselines) on the quick
// protocol with one engine worker, in the given mode.
func (e *env) suite(mode string) *experiments.Suite {
	s := experiments.NewSuite()
	s.Runner.Warmup, s.Runner.Measure, s.Runner.Seed = warmupCycles, measureCycles, e.seed
	s.Engine = sim.NewEngine(1)
	if mode == campaign.ModeSampled {
		s.Mode = mode
		s.Sampling = samplingConfig()
	}
	return s
}

// tempDir returns a new empty directory under the run's scratch space.
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.dir, prefix+"-*")
}

// figure5Cells and schedCells are the exact workload's batch; sampledCells
// is the same Figure 5 sweep under the sampled workload's schedule.
func figure5Cells() []campaign.Cell { return experiments.Figure5Sweep().Cells }
func schedCells() []campaign.Cell   { return experiments.SchedSweep().Cells }
func sampledCells() []campaign.Cell {
	return experiments.ApplyModeSampling(experiments.Figure5Sweep(), campaign.ModeSampled, samplingConfig()).Cells
}

// interleave returns cells in the fixed order a pass computes them: every
// 37th cell, wrapping around. The sweep lists a workload's policies, a
// thread count and the sched trials each in one stretch, so in sweep order
// the cells near a percentile would all run in one stretch of the pass, and
// the host's drift during that stretch would move the percentile. Spread
// out, they see the whole pass. 37 is coprime to both batch sizes, 144 and
// 162, so every cell runs once.
func interleave(cells []campaign.Cell) []campaign.Cell {
	const stride = 37
	out := make([]campaign.Cell, len(cells))
	for i := range out {
		out[i] = cells[i*stride%len(cells)]
	}
	return out
}

// cellValue is one Figure 5 cell's throughput and, for sampled cells, its
// 99.7% confidence half-width: the inputs of the parity metrics.
type cellValue struct {
	Throughput float64 `json:"throughput"`
	CI         float64 `json:"ci,omitempty"`
}

// pass is one timed execution of a workload's closed batch.
type pass struct {
	wall      time.Duration
	allocB    uint64
	rssMB     float64 // the process's peak resident memory when the pass ended
	gcFrac    float64
	cellMs    []float64 // per-cell latency of Figure 5 cells; +Inf for a failed cell
	attempted int64
	failed    int64

	gains   map[string]float64 // DCRA's Figure 5 Hmean gain over each policy, %
	digests map[string]string  // rendered tables and per-cell results
	cells   []cellValue        // Figure 5 cells in sweep order

	cal    *calibration  // slices timed between cells; nil when the pass times none
	paused time.Duration // time spent on those slices, which wall excludes

	t0        time.Time
	alloc0    uint64
	cpu0, gc0 float64
}

func newPass() *pass {
	return &pass{gains: map[string]float64{}, digests: map[string]string{}}
}

// begin starts the timed region.
func (p *pass) begin() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc0 = ms.TotalAlloc
	p.cpu0, p.gc0 = cpuSeconds()
	p.t0 = time.Now()
}

// end closes the timed region.
func (p *pass) end() {
	p.wall = time.Since(p.t0) - p.paused
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.allocB = ms.TotalAlloc - p.alloc0
	p.rssMB = maxRSSMB()
	cpu, gc := cpuSeconds()
	p.gcFrac = ratio(gc-p.gc0, cpu-p.cpu0)
}

// cpuSeconds reads the process's total and GC CPU time from runtime/metrics.
func cpuSeconds() (total, gc float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// isSchedTrial reports whether c is one of the sched experiment's trials
// rather than a Figure 5 cell.
func isSchedTrial(c campaign.Cell) bool { return strings.HasPrefix(c.WID, "sched:") }

// cell records one cell's latency; a failed cell counts as infinitely slow.
// A sched trial counts as an operation, but its latency stays out of the
// cell percentiles: a Figure 5 cell simulates a fixed number of cycles on
// every seed, while a trial's length depends on the seed's job arrivals.
// The trials are most of exact's slowest tenth, so with them p90 jumped
// between about 235 and 290 ms from one seed to the next (README.md).
func (p *pass) cell(c campaign.Cell, d time.Duration, err error) {
	p.attempted++
	if err != nil {
		p.failed++
	}
	switch {
	case isSchedTrial(c):
	case err != nil:
		p.cellMs = append(p.cellMs, math.Inf(1))
	default:
		p.cellMs = append(p.cellMs, float64(d)/float64(time.Millisecond))
	}
}

// runBatch computes cells one at a time, a one-worker closed batch, timing
// each, and after each times one calibration slice when the pass has a
// calibration. It returns the first cell error.
func (p *pass) runBatch(cells []campaign.Cell, run func(campaign.Cell) error) error {
	var first error
	for _, c := range cells {
		t0 := time.Now()
		err := run(c)
		t1 := time.Now()
		p.cell(c, t1.Sub(t0), err)
		if p.cal != nil {
			p.cal.slice()
			p.paused += time.Since(t1)
		}
		if err != nil && first == nil {
			first = fmt.Errorf("cell %s: %w", c, err)
		}
	}
	return first
}

// renderFigure5 renders Figure 5 from the suite and records its Hmean gains
// and the digest of its two tables.
func renderFigure5(s *experiments.Suite, p *pass) error {
	f5, err := experiments.Figure5(s)
	if err != nil {
		return err
	}
	for pn, v := range f5.AvgHmeanImprovement {
		p.gains[string(pn)] = v
	}
	p.digests["figure5"] = digest(f5.ThroughputReport().String() + f5.HmeanReport().String())
	return nil
}

// renderSched renders the scheduler table and records its digest.
func renderSched(s *experiments.Suite, p *pass) error {
	t, err := experiments.SchedTable(s)
	if err != nil {
		return err
	}
	p.digests["sched"] = digest(t.String())
	return nil
}

// resultSet digests results in order and keeps their throughputs.
type resultSet struct {
	h     []byte
	cells []cellValue
}

func (rs *resultSet) add(r sim.Result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	sum := sha256.Sum256(append(rs.h, data...))
	rs.h = sum[:]
	v := cellValue{Throughput: r.Throughput}
	if r.Sampled != nil {
		v.CI = r.Sampled.ThroughputCI
	}
	rs.cells = append(rs.cells, v)
	return nil
}

func (rs *resultSet) digest() string { return hex.EncodeToString(rs.h) }

// collect reads the given cells back from a rendered suite (memo hits) and
// records the digest of their results under name; Figure 5 cells also keep
// their throughputs.
func collect(s *experiments.Suite, cells []campaign.Cell, p *pass, name string) error {
	var rs resultSet
	for _, c := range cells {
		r, err := s.RunCell(c)
		if err != nil {
			return err
		}
		if err := rs.add(r); err != nil {
			return err
		}
	}
	p.digests[name] = rs.digest()
	if name == "cells" {
		p.cells = rs.cells
	}
	return nil
}

// digest is the hex SHA-256 of s.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// exactPass runs Figure 5's 144 cells and the scheduler's 18 trials in exact
// mode on one engine worker, then renders both.
func exactPass(e *env) (*pass, error) {
	s := e.suite(campaign.ModeExact)
	p := newPass()
	p.cal = &calibration{}
	p.begin()
	err := p.runBatch(interleave(append(figure5Cells(), schedCells()...)), func(c campaign.Cell) error {
		return s.Prefetch([]campaign.Cell{c})
	})
	if err == nil {
		err = renderFigure5(s, p)
	}
	if err == nil {
		err = renderSched(s, p)
	}
	p.end()
	if err != nil {
		return p, err
	}
	if err := collect(s, figure5Cells(), p, "cells"); err != nil {
		return p, err
	}
	return p, collect(s, schedCells(), p, "schedcells")
}

// sampledPass runs Figure 5's 144 cells under the adaptive sampling schedule
// on one engine worker, then renders the figure.
func sampledPass(e *env) (*pass, error) {
	s := e.suite(campaign.ModeSampled)
	cells := sampledCells()
	p := newPass()
	p.cal = &calibration{}
	p.begin()
	err := p.runBatch(interleave(cells), func(c campaign.Cell) error { return s.Prefetch([]campaign.Cell{c}) })
	if err == nil {
		err = renderFigure5(s, p)
	}
	p.end()
	if err != nil {
		return p, err
	}
	return p, collect(s, cells, p, "cells")
}

// exactReference computes the exact Figure 5 results of the run's seed
// outside any timed region, on two engine workers (results do not depend on
// the worker count), for the checks and the parity metrics.
func exactReference(e *env) (*pass, error) {
	s := e.suite(campaign.ModeExact)
	s.Engine = sim.NewEngine(2)
	p := newPass()
	if err := renderFigure5(s, p); err != nil {
		return nil, err
	}
	return p, collect(s, figure5Cells(), p, "cells")
}

// scratchDir is where the benchmark keeps its build-keyed records and the
// traced run's artifacts, inside the checkout's build directory.
func scratchDir(parts ...string) string {
	return filepath.Join(append([]string{".bench_build", "perfbench"}, parts...)...)
}
