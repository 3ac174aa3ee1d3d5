package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/coord"
	"dcra/internal/experiments"
	"dcra/internal/obs"
	"dcra/internal/sim"
)

// campaignWorkers is the campaign workload's worker count: one per core of
// the two-vCPU box the baseline was measured on.
const campaignWorkers = 2

// calls records what the timing wrappers see: per-call durations, each
// cell's span from the start of its computation to the acknowledgement of
// its Complete, worker busy time, and the failures among the calls.
type calls struct {
	mu        sync.Mutex
	sp        *spans // nil when untraced
	started   map[string]time.Time
	cellMs    []float64
	durMs     map[string][]float64
	busy      time.Duration
	attempted int64
	failed    int64
}

func newCalls(sp *spans) *calls {
	return &calls{sp: sp, started: map[string]time.Time{}, durMs: map[string][]float64{}}
}

// done records one finished call.
func (c *calls) done(name string, t0 time.Time, failed bool) {
	d := time.Since(t0)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if failed {
		c.failed++
	}
	c.durMs[name] = append(c.durMs[name], float64(d)/float64(time.Millisecond))
}

// timedTransport times every call a worker makes to its coordinator and
// passes it through unchanged.
type timedTransport struct {
	next coord.Transport
	rec  *calls
	lane int
}

func (t *timedTransport) Lease(req coord.LeaseRequest) (coord.LeaseResponse, error) {
	defer t.rec.sp.begin(t.lane, "coord.lease")()
	t0 := time.Now()
	resp, err := t.next.Lease(req)
	t.rec.done("lease", t0, err != nil)
	return resp, err
}

func (t *timedTransport) Heartbeat(req coord.HeartbeatRequest) (coord.HeartbeatResponse, error) {
	// Heartbeats run on their own goroutine, so their spans get their own lane.
	defer t.rec.sp.begin(t.lane+heartbeatLanes, "coord.heartbeat")()
	t0 := time.Now()
	resp, err := t.next.Heartbeat(req)
	t.rec.done("heartbeat", t0, err != nil)
	return resp, err
}

func (t *timedTransport) Complete(req coord.CompleteRequest) (coord.CompleteResponse, error) {
	end := t.rec.sp.begin(t.lane, "coord.complete")
	t0 := time.Now()
	resp, err := t.next.Complete(req)
	acked := time.Now()
	end()
	t.rec.done("complete", t0, err != nil || !resp.OK)
	if err == nil && resp.OK {
		t.rec.mu.Lock()
		for _, cr := range req.Cells {
			if s, ok := t.rec.started[cr.Key]; ok {
				t.rec.cellMs = append(t.rec.cellMs, float64(acked.Sub(s))/float64(time.Millisecond))
				delete(t.rec.started, cr.Key)
			}
		}
		t.rec.mu.Unlock()
	}
	return resp, err
}

func (t *timedTransport) Fail(req coord.FailRequest) (coord.FailResponse, error) {
	defer t.rec.sp.begin(t.lane, "coord.fail")()
	t0 := time.Now()
	resp, err := t.next.Fail(req)
	t.rec.done("fail", t0, err != nil)
	return resp, err
}

func (t *timedTransport) Status() (coord.StatusResponse, error) {
	t0 := time.Now()
	resp, err := t.next.Status()
	t.rec.done("status", t0, err != nil)
	return resp, err
}

// timedRunner times every cell a worker computes and passes it through
// unchanged.
type timedRunner struct {
	next campaign.Runner
	rec  *calls
}

func (r *timedRunner) RunCell(c campaign.Cell) (sim.Result, error) {
	t0 := time.Now()
	r.rec.mu.Lock()
	r.rec.started[c.Key()] = t0
	r.rec.mu.Unlock()
	res, err := r.next.RunCell(c)
	d := time.Since(t0)
	r.rec.mu.Lock()
	r.rec.busy += d
	r.rec.attempted++
	if err != nil {
		r.rec.failed++
	}
	r.rec.mu.Unlock()
	return res, err
}

// heartbeatLanes offsets heartbeat spans from their worker's lane.
const heartbeatLanes = 10

// rig is a coordinated campaign set up as `campaign coordinate -exp fig5`
// sets it up with default flags, served over HTTP on a loopback port, with
// workers set up as `campaign work` sets them up, each behind the timing
// wrappers.
type rig struct {
	dir      string
	suite    *experiments.Suite
	store    *campaign.Store
	sweep    campaign.Sweep
	reg      *obs.Registry
	co       *coord.Coordinator
	srv      *http.Server
	serveErr chan error
	workers  []*coord.Worker
	rec      *calls
}

// newRig sets up a campaign over a fresh store. With t set, the coordinator
// records lease spans and the workers compute through the traced runner.
func newRig(e *env, t *tracing) (*rig, error) {
	dir, err := e.tempDir("campaign")
	if err != nil {
		return nil, err
	}
	r := &rig{dir: dir, suite: e.suite(campaign.ModeExact), reg: obs.NewRegistry(), serveErr: make(chan error, 1)}
	if t != nil {
		r.reg = t.reg
	}
	r.suite.Engine = sim.NewEngine(0)
	if r.store, err = campaign.Open(filepath.Join(dir, "store"), r.suite.StoreParams()); err != nil {
		return nil, err
	}
	r.suite.Store = r.store
	spec, err := experiments.SpecByKey("fig5")
	if err != nil {
		return nil, err
	}
	r.sweep = experiments.ApplyModeSampling(spec.Sweep(), r.suite.Mode, r.suite.Sampling)
	var tr *obs.Tracer
	if t != nil {
		tr = t.tr
	}
	r.suite.Instrument(r.reg, tr)
	r.co, err = coord.New(spec.Key, r.sweep, r.store, coord.Options{
		Seed:       1,
		Checkpoint: filepath.Join(dir, "store", "coordinator.json"),
		Obs:        r.reg,
		Tracer:     tr,
		Flight:     obs.NewFlightRecorder(512),
		CellSLO:    coord.CellSLO{Quantile: 0.99, Window: 30},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.srv = &http.Server{Handler: coord.NewHTTPHandler(r.co)}
	go func() { r.serveErr <- r.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	var sp *spans
	if t != nil {
		sp = t.spans
	}
	r.rec = newCalls(sp)
	if t != nil {
		t.calls = r.rec
	}
	for i := 0; i < campaignWorkers; i++ {
		lane := i
		r.workers = append(r.workers, &coord.Worker{
			ID:        fmt.Sprintf("worker-%d", i),
			Transport: &timedTransport{next: &coord.HTTPTransport{Base: base}, rec: r.rec, lane: lane},
			NewRunner: func(p campaign.Params) (campaign.Runner, error) {
				var next campaign.Runner
				if t != nil {
					next = t.runner(p, lane)
				} else {
					s := experiments.NewSuite()
					s.Runner.Warmup, s.Runner.Measure, s.Runner.Seed = p.Warmup, p.Measure, p.Seed
					next = s
				}
				return &timedRunner{next: next, rec: r.rec}, nil
			},
		})
	}
	return r, nil
}

// close stops the HTTP server and removes the campaign's directory.
func (r *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if r.srv != nil {
		r.srv.Shutdown(ctx)
	}
	os.RemoveAll(r.dir)
}

// campaignPass runs the coordinated campaign and renders Figure 5 from its
// store with a fresh suite. The timed region starts when the workers start
// and ends with the rendered tables; waiting for the workers to notice the
// campaign is over comes after it.
func campaignPass(e *env, t *tracing) (*pass, error) {
	r, err := newRig(e, t)
	if err != nil {
		return nil, err
	}
	defer r.close()
	p := newPass()
	p.begin()
	var wg sync.WaitGroup
	werrs := make([]error, len(r.workers))
	for i, w := range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			werrs[i] = w.Run()
		}()
	}
	err = r.wait()
	var render *experiments.Suite
	if err == nil {
		render, err = r.render(p, t)
	}
	p.end()
	wg.Wait()
	if err == nil {
		err = sim.FirstError(werrs)
	}
	r.account(p)
	if err != nil {
		return p, err
	}
	if present, missing := r.store.Count(r.sweep); len(missing) > 0 {
		return p, fmt.Errorf("store holds %d of %d cells", present, len(r.sweep.Cells))
	}
	if err := collect(render, figure5Cells(), p, "cells"); err != nil {
		return p, err
	}
	if t != nil {
		return p, t.storeRows(e, r)
	}
	return p, nil
}

// wait polls for completion and ticks the coordinator's health ring as
// `campaign coordinate` does, then drains the coordinator.
func (r *rig) wait() error {
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	health := time.NewTicker(2 * time.Second)
	defer health.Stop()
	r.co.HealthTick()
	for {
		select {
		case <-tick.C:
			if r.co.Status().Complete() {
				r.co.HealthTick()
				r.co.Drain()
				return nil
			}
		case <-health.C:
			r.co.HealthTick()
		case err := <-r.serveErr:
			return fmt.Errorf("coordinator HTTP server: %w", err)
		}
	}
}

// render builds a fresh suite over a freshly opened store and renders
// Figure 5 strictly from it.
func (r *rig) render(p *pass, t *tracing) (*experiments.Suite, error) {
	if t != nil {
		defer t.spans.begin(storeLane, "experiments.render")()
	}
	st, err := campaign.Open(r.store.Dir(), r.suite.StoreParams())
	if err != nil {
		return nil, err
	}
	s := experiments.NewSuite()
	s.Runner.Warmup, s.Runner.Measure, s.Runner.Seed = warmupCycles, measureCycles, r.suite.Runner.Seed
	s.Store, s.RequireStore = st, true
	return s, renderFigure5(s, p)
}

// account folds the campaign's failures and per-cell latencies into the
// pass: cell errors, transport errors, rejected completions, expired or
// failed leases, quarantined cells and cells the coordinator gave up on.
func (r *rig) account(p *pass) {
	r.rec.mu.Lock()
	defer r.rec.mu.Unlock()
	p.cellMs = append(p.cellMs, r.rec.cellMs...)
	p.attempted += r.rec.attempted
	p.failed += r.rec.failed + r.reg.Counter("coord.leases.expired").Value() +
		r.reg.Counter("coord.leases.failed").Value() + r.store.Quarantined() + int64(len(r.co.Missing()))
	for range r.rec.started { // cells computed but never acknowledged
		p.failed++
		p.cellMs = append(p.cellMs, inf)
	}
}
