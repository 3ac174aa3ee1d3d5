package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/config"
	"dcra/internal/coord"
	"dcra/internal/sim"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {144, 90},
		{999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileIsNearestRankWithFailuresLast(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %g, want 9", got)
	}
	if got := percentile(append(xs, inf), 100); !math.IsInf(got, 1) {
		t.Errorf("p100 with a failure = %g, want +Inf", got)
	}
}

func TestFailedCellCountsAgainstAttempted(t *testing.T) {
	cells := make([]campaign.Cell, 3)
	for i := range cells {
		cells[i] = campaign.Cell{Cfg: config.Baseline(), WID: "ILP2.g" + strconv.Itoa(i+1), Pol: "DCRA"}
	}
	boom := errors.New("boom")
	p := newPass()
	err := p.runBatch(cells, func(c campaign.Cell) error {
		if c.WID == "ILP2.g2" {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("runBatch error = %v, want the cell's error", err)
	}
	if p.attempted != 3 || p.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", p.attempted, p.failed)
	}
	if got := percentile(p.cellMs, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 with one of three cells failed = %g, want +Inf", got)
	}
	out := failure(p, nil)
	if out.Correct || out.Attempted != 3 || out.Failed != 1 || len(out.Metrics) != 0 {
		t.Errorf("failure() = %+v, want incorrect, 3 attempted, 1 failed, no metrics", out)
	}
	p.cell(campaign.Cell{WID: "sched:c4:open:g3000:j16:b24000"}, time.Second, nil)
	if p.attempted != 4 || len(p.cellMs) != 3 {
		t.Errorf("after a sched trial: attempted %d, %d latencies; want 4 and 3", p.attempted, len(p.cellMs))
	}
}

func TestInterleaveRunsEveryCellOnce(t *testing.T) {
	for _, cells := range [][]campaign.Cell{sampledCells(), append(figure5Cells(), schedCells()...)} {
		seen := map[string]int{}
		for _, c := range interleave(cells) {
			seen[c.Key()]++
		}
		if len(seen) != len(cells) {
			t.Errorf("interleave of %d cells ran %d distinct cells", len(cells), len(seen))
		}
		for k, n := range seen {
			if n != 1 {
				t.Errorf("interleave ran %s %d times", k, n)
			}
		}
	}
}

func TestCalibrationScalesByMedianSlice(t *testing.T) {
	c := calibration{sliceMs: []float64{calibRefMs * 2, calibRefMs * 2, 100 * calibRefMs}}
	if got := c.scale(); got != 0.5 {
		t.Errorf("scale of slices twice the reference, one outlier = %g, want 0.5", got)
	}
	c = calibration{}
	c.slice()
	if len(c.sliceMs) != 1 || !(c.sliceMs[0] > 0) {
		t.Errorf("slice recorded %v, want one positive time", c.sliceMs)
	}
}

func TestGoldenRejectsOneULP(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	p := goldenPass(t, g, "exact")
	if err := g.check("exact", g.Seed, p); err != nil {
		t.Fatalf("golden values rejected: %v", err)
	}
	for pol, v := range p.gains {
		p.gains[pol] = math.Nextafter(v, math.Inf(1))
		if err := g.check("exact", g.Seed, p); err == nil {
			t.Errorf("a one-ulp change to the %s gain passed the golden check", pol)
		}
		if err := g.check("exact", g.Seed+1, p); err != nil {
			t.Errorf("golden values apply only to the default seed: %v", err)
		}
		p.gains[pol] = v
	}
	p.digests["figure5"] = digest("not the golden table")
	if err := g.check("exact", g.Seed, p); err == nil && len(g.Digests["exact"]) > 0 {
		t.Error("a changed Figure 5 digest passed the golden check")
	}
}

// goldenPass returns a pass carrying the default seed's golden outputs.
func goldenPass(t *testing.T, g golden, workload string) *pass {
	t.Helper()
	p := newPass()
	for pol, s := range g.HmeanGains {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		p.gains[pol] = v
	}
	for name, d := range g.Digests[workload] {
		p.digests[name] = d
	}
	return p
}

func TestGateRejectsPerturbedAndNondeterministicRuns(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	newBench := func(seed uint64) *bench {
		return &bench{name: "exact", e: &env{seed: seed}, rs: records{dir: t.TempDir()}, g: g, log: io.Discard}
	}
	b := newBench(g.Seed)
	if err := b.verify([]*pass{goldenPass(t, g, "exact")}); err != nil {
		t.Fatalf("golden pass rejected: %v", err)
	}
	b.perturb, b.rs.readOnly = true, true
	if err := b.verify([]*pass{goldenPass(t, g, "exact")}); err == nil {
		t.Error("a perturbed pass passed the gate")
	}

	// On another seed, passes of one run and runs of one build must agree.
	b = newBench(g.Seed + 1)
	other := goldenPass(t, g, "exact")
	other.digests["figure5"] = digest("another table")
	if err := b.verify([]*pass{goldenPass(t, g, "exact"), other}); err == nil {
		t.Error("two passes with different digests passed the gate")
	}
	if err := b.verify([]*pass{goldenPass(t, g, "exact")}); err != nil {
		t.Fatalf("first run of a seed rejected: %v", err)
	}
	if err := b.verify([]*pass{other}); err == nil {
		t.Error("a run disagreeing with an earlier run of the same build passed the gate")
	}
	failed := goldenPass(t, g, "exact")
	failed.cell(campaign.Cell{}, 0, errors.New("boom"))
	if err := b.verify([]*pass{failed}); err == nil {
		t.Error("a pass with a failed cell passed the gate")
	}
}

// fakeTransport answers every call with fixed replies and remembers the
// requests it got.
type fakeTransport struct {
	got  []any
	err  error
	resp coord.CompleteResponse
}

func (f *fakeTransport) Lease(r coord.LeaseRequest) (coord.LeaseResponse, error) {
	f.got = append(f.got, r)
	return coord.LeaseResponse{State: coord.StateWait, RetryMs: 7}, f.err
}

func (f *fakeTransport) Heartbeat(r coord.HeartbeatRequest) (coord.HeartbeatResponse, error) {
	f.got = append(f.got, r)
	return coord.HeartbeatResponse{OK: true, Cancel: true}, f.err
}

func (f *fakeTransport) Complete(r coord.CompleteRequest) (coord.CompleteResponse, error) {
	f.got = append(f.got, r)
	return f.resp, f.err
}

func (f *fakeTransport) Fail(r coord.FailRequest) (coord.FailResponse, error) {
	f.got = append(f.got, r)
	return coord.FailResponse{OK: true}, f.err
}

func (f *fakeTransport) Status() (coord.StatusResponse, error) {
	f.got = append(f.got, "status")
	return coord.StatusResponse{Campaign: "fig5", Done: 3}, f.err
}

type fakeRunner struct {
	got []campaign.Cell
	err error
}

func (f *fakeRunner) RunCell(c campaign.Cell) (sim.Result, error) {
	f.got = append(f.got, c)
	return sim.Result{Throughput: 2.5, Policy: "DCRA"}, f.err
}

func TestTimingWrappersPassCallsThrough(t *testing.T) {
	for _, wantErr := range []error{nil, errors.New("connection refused")} {
		cell := campaign.Cell{Cfg: config.Baseline(), WID: "MEM2.g1", Pol: "DCRA"}
		inner := &fakeTransport{err: wantErr, resp: coord.CompleteResponse{OK: true}}
		rec := newCalls(nil)
		tt := &timedTransport{next: inner, rec: rec}
		var sent []any

		lr, err := tt.Lease(coord.LeaseRequest{Worker: "w"})
		sent = append(sent, coord.LeaseRequest{Worker: "w"})
		if lr.State != coord.StateWait || lr.RetryMs != 7 || err != wantErr {
			t.Errorf("Lease returned %+v, %v", lr, err)
		}
		hr, err := tt.Heartbeat(coord.HeartbeatRequest{Worker: "w", LeaseID: "l1"})
		sent = append(sent, coord.HeartbeatRequest{Worker: "w", LeaseID: "l1"})
		if !hr.OK || !hr.Cancel || err != wantErr {
			t.Errorf("Heartbeat returned %+v, %v", hr, err)
		}
		rn := &fakeRunner{err: wantErr}
		tr := &timedRunner{next: rn, rec: rec}
		res, err := tr.RunCell(cell)
		if res.Throughput != 2.5 || res.Policy != "DCRA" || err != wantErr || !reflect.DeepEqual(rn.got, []campaign.Cell{cell}) {
			t.Errorf("RunCell returned %+v, %v after passing %v", res, err, rn.got)
		}
		creq := coord.CompleteRequest{Worker: "w", LeaseID: "l1", Done: true,
			Cells: []campaign.CellResult{{Key: cell.Key(), Cell: cell, Result: res}}, Sum: "s", CellMs: []float64{1}}
		cr, err := tt.Complete(creq)
		sent = append(sent, creq)
		if !cr.OK || err != wantErr {
			t.Errorf("Complete returned %+v, %v", cr, err)
		}
		fr, err := tt.Fail(coord.FailRequest{Worker: "w", LeaseID: "l1", Reason: "r"})
		sent = append(sent, coord.FailRequest{Worker: "w", LeaseID: "l1", Reason: "r"})
		if !fr.OK || err != wantErr {
			t.Errorf("Fail returned %+v, %v", fr, err)
		}
		sr, err := tt.Status()
		sent = append(sent, "status")
		if sr.Campaign != "fig5" || sr.Done != 3 || err != wantErr {
			t.Errorf("Status returned %+v, %v", sr, err)
		}
		if !reflect.DeepEqual(inner.got, sent) {
			t.Errorf("transport saw %+v, want %+v", inner.got, sent)
		}
		if rec.attempted != 6 {
			t.Errorf("recorded %d calls, want 6", rec.attempted)
		}
		if wantErr == nil && (len(rec.cellMs) != 1 || rec.failed != 0) {
			t.Errorf("acknowledged cell: %d latencies, %d failures; want 1 and 0", len(rec.cellMs), rec.failed)
		}
		if wantErr != nil && (len(rec.cellMs) != 0 || rec.failed != 6) {
			t.Errorf("failing transport: %d latencies, %d failures; want 0 and 6", len(rec.cellMs), rec.failed)
		}
	}
}

func TestSpansSelfTimeExcludesChildren(t *testing.T) {
	sp := newSpans(nil)
	endOuter := sp.begin(0, "cell")
	endInner := sp.begin(0, "cpu.run")
	time.Sleep(20 * time.Millisecond)
	endInner()
	endOuter()
	cell, run := sp.get("cell"), sp.get("cpu.run")
	if run.self != run.total || cell.self != cell.total-run.total {
		t.Errorf("cell total %v self %v, cpu.run total %v self %v", cell.total, cell.self, run.total, run.self)
	}
}

func TestParity(t *testing.T) {
	exact := []cellValue{{Throughput: 2}, {Throughput: 3}}
	sampled := []cellValue{{Throughput: 2.5, CI: 1}, {Throughput: 2, CI: 0.5}}
	p, err := computeParity(exact, sampled)
	if err != nil || p.withinFrac != 0.5 || p.meanAbsErr != 0.75 {
		t.Errorf("parity = %+v, %v; want within 0.5, mean abs err 0.75", p, err)
	}
	if _, err := computeParity(exact, sampled[:1]); err == nil {
		t.Error("parity over mismatched cell lists succeeded")
	}
}

func TestFuncPackage(t *testing.T) {
	for sym, want := range map[string]string{
		"dcra/internal/cpu.(*Machine).step":   "cpu",
		"dcra/internal/cache.(*Cache).Access": "cache",
		"runtime.mallocgc":                    "runtime",
		"main.spin":                           "main",
		"net/http.(*conn).serve":              "net/http",
		"dcra/internal/sched.Run.func1":       "sched",
	} {
		if got := funcPackage(sym); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", sym, got, want)
		}
	}
}

var spinSink float64

// spin burns CPU in this package for d, touching no memory in its inner
// loop so that race-detector instrumentation does not take the samples.
//
//go:noinline
func spin(d time.Duration) float64 {
	var acc float64
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1_000_000; i++ {
			acc += float64(i) * 1.0000001
		}
	}
	return acc
}

func TestPackageSharesReadsACPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spinSink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := packageShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if len(shares) == 0 || math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares %v sum to %g, want 1", shares, sum)
	}
	// A test binary names this package by its import path.
	if got := shares["dcra/perfbench"]; got < 0.5 {
		t.Errorf("spinning in this package got %.2f of the samples: %v", got, shares)
	}
}
