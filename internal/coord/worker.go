package coord

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"dcra/internal/campaign"
)

// ErrKilled is returned by a fault-injection hook to simulate a hard worker
// crash: the worker exits mid-lease without failing or surrendering it, so
// only the coordinator's heartbeat deadline can reclaim the work.
var ErrKilled = errors.New("coord: worker killed (injected fault)")

// RunnerFactory builds the cell evaluator for a campaign's measurement
// protocol. Workers carry no protocol flags of their own: the first lease
// tells them the campaign's warmup/measure/seed and the factory builds a
// matching runner (the CLI builds an experiments.Suite; tests use doubles).
type RunnerFactory func(p campaign.Params) (campaign.Runner, error)

// WorkerHooks are fault-injection points; nil hooks are skipped.
type WorkerHooks struct {
	// BeforeCell runs before the worker's n-th cell (one per lease).
	// Returning an error aborts the worker as if it crashed: no Fail call,
	// no cleanup, mirroring a kill -9.
	BeforeCell func(n int, c campaign.Cell) error
}

// Worker pulls one-cell leases from a coordinator, computes each cell and
// sends its result home (so a crash loses at most the cell in flight). A
// heartbeat goroutine keeps each lease alive while computing. Transport
// errors — a restarting coordinator — are retried with exponential backoff
// before giving up.
type Worker struct {
	ID        string
	Transport Transport
	NewRunner RunnerFactory

	// RetryWindow bounds how long consecutive transport failures are
	// retried before the worker gives up (default 60s).
	RetryWindow time.Duration
	// Hooks inject faults; zero value injects nothing.
	Hooks WorkerHooks

	// Cells counts cells computed; Missing is the coordinator's count of
	// given-up cells when the campaign ended. Valid after Run returns.
	Cells   int
	Missing int

	runner campaign.Runner
	params campaign.Params
}

// Run serves the campaign until the coordinator reports it done (returns
// nil), the transport stays down past RetryWindow, or a fault hook kills the
// worker. An outage is logged (standard log package) at its first failed
// lease request and again when the coordinator answers.
func (w *Worker) Run() error {
	retryWindow := w.RetryWindow
	if retryWindow <= 0 {
		retryWindow = 60 * time.Second
	}
	var downSince time.Time
	backoff := 50 * time.Millisecond
	for {
		resp, err := w.Transport.Lease(LeaseRequest{Worker: w.ID})
		if err != nil {
			now := time.Now()
			if downSince.IsZero() {
				downSince = now
				log.Printf("coord: worker %s: coordinator unreachable (%v); retrying for up to %v", w.ID, err, retryWindow)
			} else if now.Sub(downSince) > retryWindow {
				return fmt.Errorf("coord: worker %s: coordinator unreachable for %v: %w", w.ID, now.Sub(downSince), err)
			}
			time.Sleep(backoff)
			backoff = min(2*backoff, 2*time.Second)
			continue
		}
		if !downSince.IsZero() {
			log.Printf("coord: worker %s: coordinator reachable again after %v", w.ID, time.Since(downSince).Round(time.Millisecond))
		}
		downSince, backoff = time.Time{}, 50*time.Millisecond
		switch resp.State {
		case StateDone:
			w.Missing = resp.Missing
			return nil
		case StateWait:
			time.Sleep(time.Duration(resp.RetryMs) * time.Millisecond)
		case StateLease:
			if err := w.serve(resp.Grant); err != nil {
				return err
			}
		default:
			return fmt.Errorf("coord: worker %s: unknown lease state %q", w.ID, resp.State)
		}
	}
}

// serve computes one lease's cell. A compute error or a rejected completion
// surrenders the lease (Fail) and returns nil — the worker moves on to the
// next lease; the coordinator owns the retry. Only injected kills propagate.
func (w *Worker) serve(g *Grant) error {
	if w.runner == nil || w.params != g.Params {
		r, err := w.NewRunner(g.Params)
		if err != nil {
			return fmt.Errorf("coord: worker %s: building runner for %+v: %w", w.ID, g.Params, err)
		}
		w.runner, w.params = r, g.Params
	}

	// Heartbeat at a third of the TTL until the cell is home or the
	// coordinator cancels the lease (drain, or a twin finished the cell
	// first). Waiting in a select on stop lets serve return as soon as the
	// completion is acknowledged.
	stop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		timer := time.NewTimer(g.TTL() / 3)
		defer timer.Stop()
		for {
			select {
			case <-stop:
				return
			case <-timer.C:
			}
			resp, err := w.Transport.Heartbeat(HeartbeatRequest{Worker: w.ID, LeaseID: g.LeaseID})
			if err == nil && resp.Cancel {
				return
			}
			timer.Reset(g.TTL() / 3)
		}
	}()
	defer func() {
		close(stop)
		hb.Wait()
	}()

	cell := g.Cell
	if hook := w.Hooks.BeforeCell; hook != nil {
		if err := hook(w.Cells, cell); err != nil {
			return err
		}
	}
	t0 := time.Now()
	r, err := w.runner.RunCell(cell)
	if err != nil {
		w.Transport.Fail(FailRequest{Worker: w.ID, LeaseID: g.LeaseID, Reason: err.Error()})
		return nil
	}
	elapsed := time.Since(t0)
	w.Cells++
	cells := []campaign.CellResult{{Key: cell.Key(), Cell: cell, Result: r}}
	resp, err := w.Transport.Complete(CompleteRequest{
		Worker:  w.ID,
		LeaseID: g.LeaseID,
		Cells:   cells,
		Sum:     PayloadSum(cells),
		CellMs:  []float64{float64(elapsed.Microseconds()) / 1e3},
	})
	if err == nil && !resp.OK {
		w.Transport.Fail(FailRequest{Worker: w.ID, LeaseID: g.LeaseID, Reason: "completion rejected: " + resp.Reason})
	}
	// A transport error abandons the lease: the coordinator re-leases the
	// cell once the lease expires or this worker asks for its next one.
	return nil
}
