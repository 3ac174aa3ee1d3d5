package coord_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/coord"
	"dcra/internal/obs"
	"dcra/internal/sim"
)

// openChaos opens a store in a fresh directory and builds a coordinator
// over sweep; tweak adjusts fastOpts first.
func openChaos(t *testing.T, sweep campaign.Sweep, tweak func(*coord.Options)) *coord.Coordinator {
	t.Helper()
	dir := t.TempDir()
	st, err := campaign.Open(dir, chaosParams)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts(t, dir, 1)
	tweak(&opts)
	co, err := coord.New("chaos", sweep, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// TestWorkerReleasesLeasePromptly checks that renewing a lease never gates
// the work: a worker takes its next lease as soon as its last completion is
// acknowledged, not when its heartbeat interval (TTL/3 = 1 s here) runs out.
func TestWorkerReleasesLeasePromptly(t *testing.T) {
	sweep := chaosSweep(16) // four ranges of fastOpts' four cells
	co := openChaos(t, sweep, func(o *coord.Options) { o.LeaseTTL = 3 * time.Second })
	w := &coord.Worker{ID: "w0", Transport: coord.NewLoopback(co), NewRunner: runnerFactory(newSlowRunner(time.Millisecond))}
	start := time.Now()
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Errorf("four leases of 1 ms cells took %v; a lease waited out its heartbeat interval", elapsed)
	}
	if w.Cells != len(sweep.Cells) {
		t.Errorf("worker computed %d cells, want %d", w.Cells, len(sweep.Cells))
	}
}

// TestHeartbeatsKeepLongLeaseAlive holds one lease for 300 ms under a 60 ms
// TTL: only heartbeats sent every TTL/3 for the whole lease keep it from
// expiring, so a heartbeat timer that fires once and is never re-armed
// fails here.
func TestHeartbeatsKeepLongLeaseAlive(t *testing.T) {
	reg := obs.NewRegistry()
	co := openChaos(t, chaosSweep(2), func(o *coord.Options) {
		o.LeaseTTL = 60 * time.Millisecond
		o.Obs = reg
	})
	w := &coord.Worker{ID: "w0", Transport: coord.NewLoopback(co), NewRunner: runnerFactory(newSlowRunner(150 * time.Millisecond))}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["coord.leases.expired"]; got != 0 {
		t.Errorf("coord.leases.expired = %d, want 0", got)
	}
	if got := snap.Counters["coord.heartbeats"]; got < 2 {
		t.Errorf("coord.heartbeats = %d, want at least 2", got)
	}
}

// gatedRunner computes cells with chaosResult once gate is closed.
type gatedRunner struct{ gate <-chan struct{} }

func (r gatedRunner) RunCell(c campaign.Cell) (sim.Result, error) {
	<-r.gate
	return chaosResult(c), nil
}

// waitSignal closes parked the first time its worker is told to wait.
type waitSignal struct {
	coord.Transport
	parked chan struct{}
	once   sync.Once
}

func (t *waitSignal) Lease(req coord.LeaseRequest) (coord.LeaseResponse, error) {
	resp, err := t.Transport.Lease(req)
	if err == nil && resp.State == coord.StateWait {
		t.once.Do(func() { close(t.parked) })
	}
	return resp, err
}

// TestExitHandshakeParkedWorker is the coordinator's exit handshake: a
// worker parked in StateWait when the last cell lands must be told the
// campaign is done before WaitIdle returns, so taking the coordinator down
// right after WaitIdle strands no worker in its retry window.
func TestExitHandshakeParkedWorker(t *testing.T) {
	co := openChaos(t, chaosSweep(2), func(o *coord.Options) {
		o.LeaseTTL = 5 * time.Second
		o.SpeculateAfter = 10 * time.Second
		o.PollInterval = 500 * time.Millisecond
	})
	lb := coord.NewLoopback(co)
	parkedSeen := &waitSignal{Transport: lb, parked: make(chan struct{})}

	// The busy worker holds the only range and computes nothing until the
	// parked worker has been told to wait.
	busy := &coord.Worker{
		ID: "busy", Transport: lb, NewRunner: runnerFactory(gatedRunner{gate: parkedSeen.parked}),
		RetryWindow: 100 * time.Millisecond,
	}
	busyErr := make(chan error, 1)
	go func() { busyErr <- busy.Run() }()
	for len(co.Status().Leases) == 0 {
		time.Sleep(time.Millisecond)
	}
	parked := &coord.Worker{
		ID: "parked", Transport: parkedSeen, NewRunner: runnerFactory(gatedRunner{}),
		RetryWindow: 100 * time.Millisecond,
	}
	parkedErr := make(chan error, 1)
	go func() { parkedErr <- parked.Run() }()

	for !co.Status().Complete() {
		time.Sleep(time.Millisecond)
	}
	co.Drain()
	const grace = 10 * time.Second
	start := time.Now()
	co.WaitIdle(grace)
	if elapsed := time.Since(start); elapsed >= grace {
		t.Errorf("WaitIdle ran out its %v grace", grace)
	}
	lb.Swap(nil) // the coordinator exits
	if err := <-parkedErr; err != nil {
		t.Errorf("parked worker: %v", err)
	}
	if err := <-busyErr; err != nil {
		t.Errorf("busy worker: %v", err)
	}
}

// TestExitHandshakeSilentWorker checks that a worker that crashed holding a
// lease holds WaitIdle up only until its lease expires and it has been
// silent for a LeaseTTL, not for the whole grace period.
func TestExitHandshakeSilentWorker(t *testing.T) {
	co := openChaos(t, chaosSweep(4), func(o *coord.Options) { o.LeaseTTL = 100 * time.Millisecond })
	ghost := &coord.Worker{
		ID: "ghost", Transport: coord.NewLoopback(co), NewRunner: runnerFactory(newSlowRunner(0)),
		Hooks: coord.WorkerHooks{BeforeCell: func(int, campaign.Cell) error { return coord.ErrKilled }},
	}
	if err := ghost.Run(); !errors.Is(err, coord.ErrKilled) {
		t.Fatalf("ghost worker exited with %v, want ErrKilled", err)
	}
	co.Drain()
	start := time.Now()
	co.WaitIdle(10 * time.Second)
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Errorf("WaitIdle waited %v for a worker silent since its lease", elapsed)
	}
}
