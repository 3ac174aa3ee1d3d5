package coord_test

import (
	"bytes"
	"errors"
	"log"
	"strings"
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
	opts := fastOpts(t, 1)
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
	sweep := chaosSweep(16) // sixteen one-cell leases
	co := openChaos(t, sweep, func(o *coord.Options) { o.LeaseTTL = 3 * time.Second })
	w := &coord.Worker{ID: "w0", Transport: coord.NewLoopback(co), NewRunner: runnerFactory(newSlowRunner(time.Millisecond))}
	start := time.Now()
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Errorf("sixteen leases of 1 ms cells took %v; a lease waited out its heartbeat interval", elapsed)
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
	co := openChaos(t, chaosSweep(1), func(o *coord.Options) {
		o.LeaseTTL = 5 * time.Second
		o.SpeculateAfter = 10 * time.Second
		o.PollInterval = 500 * time.Millisecond
	})
	lb := coord.NewLoopback(co)
	parkedSeen := &waitSignal{Transport: lb, parked: make(chan struct{})}

	// The busy worker holds the only cell and computes nothing until the
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

// TestNextLeaseClosesCancelledLease has a speculative twin finish the cell
// a slow worker is straggling on. The straggler's lease never sees a
// Complete or a Fail (its completion lost in transport, say), so its next
// Lease request must close that lease, without charging a retry, and
// WaitIdle must return at once instead of waiting out the lease's TTL.
func TestNextLeaseClosesCancelledLease(t *testing.T) {
	const ttl = time.Second
	co := openChaos(t, chaosSweep(1), func(o *coord.Options) {
		o.LeaseTTL = ttl
		o.SpeculateAfter = 20 * time.Millisecond
	})
	if r := co.Lease(coord.LeaseRequest{Worker: "slow"}); r.State != coord.StateLease {
		t.Fatalf("slow's lease request answered %q", r.State)
	}
	// The twin polls until slow's lease is a straggler, then computes the
	// cell under a speculative lease.
	twin := &coord.Worker{ID: "twin", Transport: coord.NewLoopback(co), NewRunner: runnerFactory(newSlowRunner(0))}
	if err := twin.Run(); err != nil {
		t.Fatal(err)
	}
	if twin.Cells != 1 {
		t.Fatalf("the twin computed %d cells, want the straggling one", twin.Cells)
	}
	if r := co.Lease(coord.LeaseRequest{Worker: "slow"}); r.State != coord.StateDone {
		t.Fatalf("slow's next lease request answered %q, want %q", r.State, coord.StateDone)
	}
	start := time.Now()
	co.WaitIdle(10 * ttl)
	if elapsed := time.Since(start); elapsed >= ttl/4 {
		t.Errorf("WaitIdle waited %v after the straggler's cancelled lease (TTL %v)", elapsed, ttl)
	}
	if st := co.Status(); len(st.Leases) != 0 || st.Retries != 0 || !st.Complete() {
		t.Errorf("after the straggler's next lease request: %d leases, %d retries, complete=%v; want 0, 0, true",
			len(st.Leases), st.Retries, st.Complete())
	}
}

// TestNextLeaseFailsAbandonedLease checks the other case: a worker asking
// for a lease while its previous one's cell is still to compute abandoned
// it, so that lease is failed at once exactly as its expiry would be (one
// retry charged, its cell behind a backoff gate) rather than held for a
// TTL.
func TestNextLeaseFailsAbandonedLease(t *testing.T) {
	co := openChaos(t, chaosSweep(1), func(o *coord.Options) {
		o.LeaseTTL = time.Minute
		o.BackoffBase, o.BackoffMax = time.Minute, time.Minute
	})
	if r := co.Lease(coord.LeaseRequest{Worker: "w"}); r.State != coord.StateLease {
		t.Fatalf("first lease request answered %q", r.State)
	}
	if r := co.Lease(coord.LeaseRequest{Worker: "w"}); r.State != coord.StateWait {
		t.Fatalf("second lease request answered %q, want wait behind the abandoned cell's backoff", r.State)
	}
	if st := co.Status(); len(st.Leases) != 0 || st.Retries != 1 || st.Pending != 1 {
		t.Errorf("after abandoning: %d leases, %d retries, %d pending; want 0, 1, 1", len(st.Leases), st.Retries, st.Pending)
	}
}

// flakyLease fails its first fails Lease calls, then tells the worker the
// campaign is done. It implements nothing else.
type flakyLease struct {
	coord.Transport
	fails int
	calls int
}

func (f *flakyLease) Lease(coord.LeaseRequest) (coord.LeaseResponse, error) {
	f.calls++
	if f.calls <= f.fails {
		return coord.LeaseResponse{}, coord.ErrUnreachable
	}
	return coord.LeaseResponse{State: coord.StateDone}, nil
}

// TestWorkerLogsOutageOnce checks that an unreachable coordinator is not
// silent: three refused lease requests in a row log one outage line, naming
// the worker, the error and the retry window, and the answer after them
// logs one recovery line.
func TestWorkerLogsOutageOnce(t *testing.T) {
	var buf bytes.Buffer
	flags, out := log.Flags(), log.Writer()
	log.SetFlags(0)
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetFlags(flags); log.SetOutput(out) })

	tr := &flakyLease{fails: 3}
	w := &coord.Worker{ID: "w7", Transport: tr, RetryWindow: 10 * time.Second}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.calls != 4 {
		t.Fatalf("worker made %d lease requests, want 4", tr.calls)
	}
	// Only this worker's lines count: a goroutine left by another test may
	// log too.
	var lines []string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.Contains(l, "worker w7:") {
			lines = append(lines, l)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("logged %d lines for w7, want an outage line and a recovery line:\n%s", len(lines), buf.String())
	}
	for _, want := range []string{coord.ErrUnreachable.Error(), "10s"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("outage line %q does not name %q", lines[0], want)
		}
	}
	if !strings.Contains(lines[1], "reachable again") {
		t.Errorf("recovery line %q", lines[1])
	}
}
