// Package coord is the campaign control plane: a coordinator leases the
// cells of one experiment's sweep to worker processes, one cell per lease,
// tracks lease heartbeats against deadlines, reclaims and re-leases expired
// or failed cells with exponential backoff and seeded jitter under a
// per-cell retry budget, re-dispatches stragglers speculatively, and stores
// each completed cell in the campaign store as it arrives. The store is the
// only state a campaign keeps on disk: a restarted coordinator re-derives
// completion from it and gives every missing cell a fresh retry budget. The
// leases of its previous life die with it, so their cells are leased afresh
// (a late completion under one is still accepted).
//
// Everything is duplicate-safe by construction. The store's content-keyed
// atomic Put makes double-completion idempotent, so speculative re-dispatch,
// late completions from expired leases and coordinator restarts can only
// waste work, never corrupt results: a coordinated campaign's store is
// bit-identical to a single-process run (asserted by the chaos tests).
package coord

import (
	"fmt"
	"sync"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/obs"
	"dcra/internal/rng"
)

// Options tune the coordinator. The zero value gets sensible defaults.
type Options struct {
	// LeaseTTL is the heartbeat deadline: a lease not heartbeated for this
	// long is reclaimed and its cell re-leased (default 15s).
	LeaseTTL time.Duration
	// RetryBudget is the per-cell attempt budget: a cell whose leases have
	// failed or expired this many times is given up on and reported missing
	// (default 5). The budget is per coordinator: one started later over the
	// same store retries the cell afresh.
	RetryBudget int
	// BackoffBase/BackoffMax bound the exponential backoff applied to a
	// cell after each failure: base*2^(attempt-1), jittered to [50%,150%]
	// by the seeded RNG, capped at max (defaults 500ms, 30s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// SpeculateAfter re-dispatches stragglers: when an idle worker asks for
	// work and no cell is pending, a cell whose sole lease has been out
	// longer than this is leased a second time (default 2*LeaseTTL).
	SpeculateAfter time.Duration
	// PollInterval is the retry hint handed to workers when nothing is
	// leasable right now (default 500ms).
	PollInterval time.Duration
	// Seed fixes the backoff jitter stream (default 1).
	Seed uint64
	// Checkpoint is ignored: the store is a campaign's only durable state.
	//
	// Deprecated: it remains only because the benchmark's campaign rig
	// still sets it; ROADMAP item 8 deletes it with that line.
	Checkpoint string
	// Logf, when set, receives one line per control-plane event (lease,
	// expiry, rejection, ...).
	Logf func(format string, args ...any)
	// Obs, when set, receives control-plane metrics (leases granted/
	// expired/failed, re-leases, heartbeats, speculative dispatches,
	// payload verify failures, per-worker cell throughput). The HTTP
	// handler additionally serves its snapshot at /metrics.
	Obs *obs.Registry
	// Tracer, when set, records lease lifecycles and worker-reported
	// cell execution as Chrome trace-event spans, one lane per worker.
	Tracer *obs.Tracer
	// Flight is ignored.
	//
	// Deprecated: it remains only because the benchmark's campaign rig
	// (perfbench/campaign.go) still sets it; ROADMAP item 8 deletes it with
	// that line.
	Flight *obs.FlightRecorder
	// CellSLO is ignored.
	//
	// Deprecated: it remains only because the benchmark's campaign rig
	// still sets it; ROADMAP item 8 deletes it with that line.
	CellSLO CellSLO
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 5
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 500 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 30 * time.Second
	}
	if o.SpeculateAfter <= 0 {
		o.SpeculateAfter = 2 * o.LeaseTTL
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 500 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// cellState tracks one cell's lifecycle.
type cellState struct {
	cell      campaign.Cell
	key       string
	done      bool
	attempts  int // failed leases so far: charged to the budget, drives backoff
	exhausted bool
	notBefore time.Time // backoff gate; zero = leasable now
}

// pending reports whether the cell is neither done nor given up on.
func (cs *cellState) pending() bool { return !cs.done && !cs.exhausted }

// contact is a worker's latest request: when it arrived and whether it was
// answered StateDone.
type contact struct {
	at   time.Time
	done bool
}

// lease is one outstanding grant.
type lease struct {
	id       string
	worker   string
	cell     int // index into Coordinator.cells
	issued   time.Time
	deadline time.Time
}

// Coordinator runs one campaign. All methods are safe for concurrent use;
// the HTTP handler and the in-process loopback call them directly.
type Coordinator struct {
	opts     Options
	name     string
	hash     string
	store    *campaign.Store
	cellByKy map[string]int

	mu       sync.Mutex
	cells    []cellState
	leases   map[string]*lease
	leaseSeq int
	jitter   *rng.Source
	draining bool
	done     int
	exhaust  int
	retries  int
	workers  map[string]contact

	o     coordObs
	lanes map[string]int // trace lane per worker, in first-contact order
}

// Trace pid lane groups of a coordinator trace: lease lifecycles and
// worker-reported cell execution, one tid per worker in each group.
const (
	TracePIDLeases = 0
	TracePIDCells  = 1
)

// coordObs holds the coordinator's pre-resolved instruments; the zero
// value (nil counters) is the disabled state.
type coordObs struct {
	leasesGranted, leasesExpired, leasesFailed, speculated *obs.Counter
	heartbeats, verifyFailures                             *obs.Counter
	cellsDone, cellsDuplicate                              *obs.Counter
	cellUS                                                 *obs.Histogram
}

// laneForLocked returns worker's stable trace lane, naming it in both
// pid groups on first contact.
func (c *Coordinator) laneForLocked(worker string) int {
	lane, ok := c.lanes[worker]
	if !ok {
		lane = len(c.lanes)
		c.lanes[worker] = lane
		c.opts.Tracer.Lane(TracePIDLeases, lane, worker)
		c.opts.Tracer.Lane(TracePIDCells, lane, worker)
	}
	return lane
}

// traceLeaseLocked closes a lease's lifecycle span: issue to now, on
// the owning worker's lane.
func (c *Coordinator) traceLeaseLocked(l *lease, now time.Time, outcome string) {
	tr := c.opts.Tracer
	if tr == nil {
		return
	}
	tr.CompleteAt(TracePIDLeases, c.laneForLocked(l.worker), "lease "+l.id+" "+outcome, "lease",
		tr.Since(l.issued), float64(now.Sub(l.issued).Microseconds()))
}

// New builds a coordinator for one experiment sweep over the given store.
// The sweep's distinct cells, in enumeration order, form the canonical cell
// order leases are handed out in. Cells the store's Get already serves count
// as done immediately (resumption, an earlier campaign, or for a sampled cell
// its stored exact counterpart, which renders prefer); Get quarantines a cell
// file it cannot read, so that cell is leased again. A sweep with no cells
// starts complete.
func New(name string, sweep campaign.Sweep, st *campaign.Store, opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:     opts,
		name:     name,
		hash:     sweep.Hash(),
		store:    st,
		cellByKy: make(map[string]int),
		leases:   make(map[string]*lease),
		workers:  make(map[string]contact),
		jitter:   rng.New(opts.Seed ^ 0xc00d),
		lanes:    make(map[string]int),
	}
	c.o = coordObs{
		leasesGranted:  opts.Obs.Counter("coord.leases.granted"),
		leasesExpired:  opts.Obs.Counter("coord.leases.expired"),
		leasesFailed:   opts.Obs.Counter("coord.leases.failed"),
		speculated:     opts.Obs.Counter("coord.leases.speculated"),
		heartbeats:     opts.Obs.Counter("coord.heartbeats"),
		verifyFailures: opts.Obs.Counter("coord.verify.failures"),
		cellsDone:      opts.Obs.Counter("coord.cells.done"),
		cellsDuplicate: opts.Obs.Counter("coord.cells.duplicate"),
		cellUS:         opts.Obs.Histogram("coord.cell.us", obs.DurationBounds),
	}
	opts.Tracer.Process(TracePIDLeases, "coordinator leases")
	opts.Tracer.Process(TracePIDCells, "worker cells")
	seen := make(map[campaign.Cell]struct{}, len(sweep.Cells))
	for _, cell := range sweep.Cells {
		if _, dup := seen[cell]; dup {
			continue
		}
		seen[cell] = struct{}{}
		_, done, err := st.Get(cell)
		if err != nil {
			return nil, err
		}
		cs := cellState{cell: cell, key: cell.Key(), done: done}
		if cs.done {
			c.done++
		}
		c.cellByKy[cs.key] = len(c.cells)
		c.cells = append(c.cells, cs)
	}
	c.logf("campaign %s (%s): %d cells, %d already complete", name, c.hash, len(c.cells), c.done)
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// reapLocked expires overdue leases, re-queueing their cells.
func (c *Coordinator) reapLocked(now time.Time) {
	for id, l := range c.leases {
		if l.deadline.After(now) {
			continue
		}
		delete(c.leases, id)
		c.o.leasesExpired.Inc()
		c.traceLeaseLocked(l, now, "expired")
		c.failLeaseLocked(l, now, "lease expired")
	}
}

// failLeaseLocked counts a dead lease as a retry and, unless its cell is
// already done or given up on, charges the cell one attempt and puts it
// behind an exponential-backoff gate.
func (c *Coordinator) failLeaseLocked(l *lease, now time.Time, why string) {
	c.retries++
	cs := &c.cells[l.cell]
	if !cs.pending() {
		c.logf("lease %s (%s, cell %s): %s; nothing left to retry", l.id, l.worker, cs.cell, why)
		return
	}
	cs.attempts++
	if cs.attempts >= c.opts.RetryBudget {
		cs.exhausted = true
		c.exhaust++
		c.logf("lease %s (%s): %s; cell %s exhausted its retry budget (%d attempts)",
			l.id, l.worker, why, cs.cell, cs.attempts)
		return
	}
	backoff := c.backoffLocked(cs.attempts)
	cs.notBefore = now.Add(backoff)
	c.logf("lease %s (%s, cell %s): %s; cell backs off %v", l.id, l.worker, cs.cell, why, backoff)
}

// closeHeldLocked closes every lease worker still holds. A worker serves
// one lease at a time, so when it asks for the next one, any lease it still
// holds is over: usually one a heartbeat told it to abandon (drain, or a
// speculative twin finished the cell), which it leaves without a Fail or a
// Complete. Closing it now rather than at its deadline keeps WaitIdle
// from waiting out its TTL. A lease with nothing left to compute is dropped
// without charging a retry; any other is failed exactly as its expiry
// would be.
func (c *Coordinator) closeHeldLocked(worker string, now time.Time) {
	for id, l := range c.leases {
		if l.worker != worker {
			continue
		}
		delete(c.leases, id)
		if !c.cells[l.cell].pending() {
			c.traceLeaseLocked(l, now, "cancelled")
			c.logf("lease %s (%s): closed at its worker's next lease request, nothing left to compute",
				l.id, l.worker)
			continue
		}
		c.o.leasesExpired.Inc()
		c.traceLeaseLocked(l, now, "abandoned")
		c.failLeaseLocked(l, now, "abandoned by its worker")
	}
}

// backoffLocked computes the jittered exponential backoff for an attempt.
func (c *Coordinator) backoffLocked(attempt int) time.Duration {
	d := c.opts.BackoffBase
	for i := 1; i < attempt && d < c.opts.BackoffMax; i++ {
		d *= 2
	}
	d = min(d, c.opts.BackoffMax)
	// Jitter to [50%, 150%] so reclaimed cells don't re-lease in lockstep.
	return d/2 + time.Duration(c.jitter.Float64()*float64(d))
}

// leaseCountLocked counts active leases per cell index.
func (c *Coordinator) leaseCountLocked() map[int]int {
	counts := make(map[int]int, len(c.leases))
	for _, l := range c.leases {
		counts[l.cell]++
	}
	return counts
}

// Lease hands out the next leasable cell: the first pending cell in
// canonical order with no active lease and an elapsed backoff gate. When
// none is, a straggler cell (sole lease older than SpeculateAfter) is
// speculatively double-leased; otherwise the worker is told to wait or,
// when every cell is done or given up on (or the coordinator is draining),
// to exit. Any lease the asking worker still holds is closed first
// (closeHeldLocked).
func (c *Coordinator) Lease(req LeaseRequest) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	resp := c.leaseLocked(req, now)
	c.workers[req.Worker] = contact{at: now, done: resp.State == StateDone}
	return resp
}

func (c *Coordinator) leaseLocked(req LeaseRequest, now time.Time) LeaseResponse {
	c.reapLocked(now)
	c.closeHeldLocked(req.Worker, now)

	if c.draining || c.done+c.exhaust == len(c.cells) {
		return LeaseResponse{State: StateDone, Missing: len(c.cells) - c.done}
	}

	counts := c.leaseCountLocked()
	for i := range c.cells {
		cs := &c.cells[i]
		if cs.pending() && counts[i] == 0 && !cs.notBefore.After(now) {
			return c.grantLocked(req.Worker, i, now)
		}
	}

	// Nothing pending: speculate on the oldest straggler not already
	// double-leased. First completion wins; the store makes the loser's
	// results harmless duplicates.
	var straggler *lease
	for _, l := range c.leases {
		if counts[l.cell] != 1 || now.Sub(l.issued) < c.opts.SpeculateAfter || !c.cells[l.cell].pending() {
			continue
		}
		if straggler == nil || l.issued.Before(straggler.issued) {
			straggler = l
		}
	}
	if straggler != nil && straggler.worker != req.Worker {
		cell := c.cells[straggler.cell].cell
		c.logf("straggler: cell %s leased to %s for %v, re-dispatching to %s",
			cell, straggler.worker, now.Sub(straggler.issued), req.Worker)
		c.o.speculated.Inc()
		return c.grantLocked(req.Worker, straggler.cell, now)
	}

	return LeaseResponse{State: StateWait, RetryMs: c.opts.PollInterval.Milliseconds()}
}

// grantLocked issues one lease over cell i.
func (c *Coordinator) grantLocked(worker string, i int, now time.Time) LeaseResponse {
	c.leaseSeq++
	l := &lease{
		id:       fmt.Sprintf("%s-%d", worker, c.leaseSeq),
		worker:   worker,
		cell:     i,
		issued:   now,
		deadline: now.Add(c.opts.LeaseTTL),
	}
	c.leases[l.id] = l
	c.o.leasesGranted.Inc()
	cs := &c.cells[i]
	c.logf("lease %s: cell %s -> %s (attempt %d)", l.id, cs.cell, worker, cs.attempts)
	return LeaseResponse{State: StateLease, Grant: &Grant{
		LeaseID: l.id,
		Params:  c.store.Params(),
		TTLMs:   c.opts.LeaseTTL.Milliseconds(),
		Cell:    cs.cell,
	}}
}

// Heartbeat extends a live lease's deadline.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.workers[req.Worker] = contact{at: now}
	c.reapLocked(now)
	l, ok := c.leases[req.LeaseID]
	if !ok {
		return HeartbeatResponse{OK: false}
	}
	c.o.heartbeats.Inc()
	l.deadline = now.Add(c.opts.LeaseTTL)
	// Cancel leases whose work evaporated (a speculative twin or a late
	// completion finished the cell) and all leases while draining.
	return HeartbeatResponse{OK: true, Cancel: c.draining || !c.cells[l.cell].pending()}
}

// Complete verifies and stores a completion payload, which must carry
// exactly one cell. Integrity is checked three times: the payload digest
// must match (in-flight corruption), the cell's recorded key must match its
// recomputed content key and belong to this campaign (wrong-campaign or
// hand-edited payloads), and its result must be one renders can read
// (campaign.CheckResult). A refused payload writes nothing. An accepted
// completion ends its lease only when that lease is for the cell carried;
// a lease for another cell stays live, to be failed and charged at its
// worker's next request (lease IDs restart with every coordinator, so a
// late completion from an earlier life can carry a live lease's ID). Valid
// completions are accepted even from expired or unknown leases — the work
// is done and the store write is idempotent, so late and duplicate
// arrivals are kept, never wasted.
func (c *Coordinator) Complete(req CompleteRequest) CompleteResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.workers[req.Worker] = contact{at: now}
	c.reapLocked(now)

	if got := PayloadSum(req.Cells); got != req.Sum {
		c.logf("rejecting completion from %s (lease %s): payload digest %s, sealed %s",
			req.Worker, req.LeaseID, got, req.Sum)
		c.o.verifyFailures.Inc()
		return CompleteResponse{Reason: "payload digest mismatch"}
	}
	if len(req.Cells) != 1 {
		c.o.verifyFailures.Inc()
		return CompleteResponse{Reason: fmt.Sprintf("completion carries %d cells, want 1", len(req.Cells))}
	}
	cr := req.Cells[0]
	if got := cr.Cell.Key(); got != cr.Key {
		c.o.verifyFailures.Inc()
		return CompleteResponse{Reason: fmt.Sprintf("cell %s recorded under key %s (recomputed %s)", cr.Cell, cr.Key, got)}
	}
	i, ok := c.cellByKy[cr.Key]
	if !ok {
		c.o.verifyFailures.Inc()
		return CompleteResponse{Reason: fmt.Sprintf("cell %s is not part of campaign %s", cr.Cell, c.name)}
	}
	if err := campaign.CheckResult(cr.Result); err != nil {
		c.o.verifyFailures.Inc()
		return CompleteResponse{Reason: fmt.Sprintf("cell %s: %v", cr.Cell, err)}
	}
	c.traceCellLocked(req, now)
	cs := &c.cells[i]
	if cs.done {
		c.o.cellsDuplicate.Inc() // duplicate (speculation or late completion): idempotent
	} else {
		if err := c.store.Put(cr.Cell, cr.Result); err != nil {
			return CompleteResponse{Reason: fmt.Sprintf("storing cell: %v", err)}
		}
		cs.done = true
		if cs.exhausted {
			// A late completion rescued a given-up cell.
			cs.exhausted = false
			c.exhaust--
		}
		c.done++
		c.o.cellsDone.Inc()
		c.opts.Obs.Counter("coord.worker.cells." + req.Worker).Inc()
	}
	if l, ok := c.leases[req.LeaseID]; ok && l.cell == i {
		c.traceLeaseLocked(l, now, "done")
		delete(c.leases, req.LeaseID)
	}
	return CompleteResponse{OK: true}
}

// traceCellLocked records the worker-reported execution span of the
// completed cell: the worker measured the duration, the coordinator
// anchors it so the span ends at receipt time. Workers without timings
// (an older binary) simply yield no cell spans.
func (c *Coordinator) traceCellLocked(req CompleteRequest, now time.Time) {
	if len(req.CellMs) == 0 {
		return
	}
	us := int64(req.CellMs[0] * 1e3)
	c.o.cellUS.Observe(us)
	tr := c.opts.Tracer
	if tr == nil {
		return
	}
	end := tr.Since(now)
	tr.CompleteAt(TracePIDCells, c.laneForLocked(req.Worker),
		"cell "+req.Cells[0].Cell.String(), "cell", end-float64(us), float64(us))
}

// Fail surrenders a lease: its cell is charged an attempt and re-queued
// behind its backoff gate.
func (c *Coordinator) Fail(req FailRequest) FailResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.workers[req.Worker] = contact{at: now}
	c.reapLocked(now)
	if l, ok := c.leases[req.LeaseID]; ok {
		delete(c.leases, req.LeaseID)
		c.o.leasesFailed.Inc()
		c.traceLeaseLocked(l, now, "failed")
		c.failLeaseLocked(l, now, "worker failed: "+req.Reason)
	}
	return FailResponse{OK: true}
}

// Status reports live progress.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.reapLocked(now)

	resp := StatusResponse{
		Campaign:    c.name,
		SweepHash:   c.hash,
		Params:      c.store.Params(),
		Total:       len(c.cells),
		Done:        c.done,
		Exhausted:   c.exhaust,
		Retries:     c.retries,
		Draining:    c.draining,
		Quarantined: c.store.Quarantined(),
	}
	leased := make(map[int]bool)
	for _, l := range c.leases {
		leased[l.cell] = true
		resp.Leases = append(resp.Leases, LeaseInfo{
			LeaseID:  l.id,
			Worker:   l.worker,
			Key:      c.cells[l.cell].key,
			AgeMs:    now.Sub(l.issued).Milliseconds(),
			ExpireMs: l.deadline.Sub(now).Milliseconds(),
		})
	}
	for i, cs := range c.cells {
		switch {
		case cs.done:
		case cs.exhausted:
			if len(resp.MissingKeys) < 20 {
				resp.MissingKeys = append(resp.MissingKeys, cs.key)
			}
		case leased[i]:
			resp.Leased++
		default:
			resp.Pending++
		}
	}
	return resp
}

// Obs returns the registry the coordinator was built with (nil when
// uninstrumented); the HTTP handler serves its snapshot at /metrics.
func (c *Coordinator) Obs() *obs.Registry { return c.opts.Obs }

// Drain stops the coordinator handing out work: subsequent lease requests
// answer StateDone and heartbeats ask their workers to abandon. In-flight
// completions are still accepted, so WaitIdle can harvest what finishes
// within the grace window.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.draining {
		c.draining = true
		c.logf("draining: no further leases; %d/%d cells complete", c.done, len(c.cells))
	}
}

// WaitIdle blocks until the grace period elapses or the campaign has wound
// down: no leases are outstanding (their workers completed, failed or
// expired) and every worker heard from within the last LeaseTTL has been
// answered StateDone, so no live worker finds the listener gone. A worker
// silent for a whole TTL has crashed or left and is not waited for.
func (c *Coordinator) WaitIdle(grace time.Duration) {
	deadline := time.Now().Add(grace)
	for {
		now := time.Now()
		c.mu.Lock()
		c.reapLocked(now)
		idle := len(c.leases) == 0 && c.workersToldLocked(now)
		c.mu.Unlock()
		if idle || !now.Before(deadline) {
			return
		}
		time.Sleep(min(50*time.Millisecond, grace/10+time.Millisecond))
	}
}

// workersToldLocked reports whether every worker heard from within the last
// LeaseTTL was answered StateDone.
func (c *Coordinator) workersToldLocked(now time.Time) bool {
	for _, w := range c.workers {
		if !w.done && now.Sub(w.at) < c.opts.LeaseTTL {
			return false
		}
	}
	return true
}

// Missing returns the cells not in the store, in canonical order.
func (c *Coordinator) Missing() []campaign.Cell {
	c.mu.Lock()
	defer c.mu.Unlock()
	var missing []campaign.Cell
	for _, cs := range c.cells {
		if !cs.done {
			missing = append(missing, cs.cell)
		}
	}
	return missing
}
