package coord

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"dcra/internal/campaign"
)

// Lease response states.
const (
	// StateLease grants work: the response carries a Grant.
	StateLease = "lease"
	// StateWait means no cell is currently leasable (everything is leased
	// or backing off); the worker should retry after RetryMs.
	StateWait = "wait"
	// StateDone means the campaign has nothing left to hand out — every cell
	// is either complete or out of retry budget (Missing counts the latter)
	// — or the coordinator is draining. Workers exit.
	StateDone = "done"
)

// LeaseRequest asks the coordinator for a cell to compute.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Grant is one lease: one cell of the campaign, under the campaign's
// measurement protocol. The worker must heartbeat before the TTL elapses or
// the coordinator reclaims and re-leases the cell.
type Grant struct {
	LeaseID string          `json:"lease_id"`
	Params  campaign.Params `json:"params"`
	TTLMs   int64           `json:"ttl_ms"`
	Cell    campaign.Cell   `json:"cell"`
}

// TTL returns the grant's heartbeat deadline interval.
func (g *Grant) TTL() time.Duration { return time.Duration(g.TTLMs) * time.Millisecond }

// LeaseResponse is the coordinator's answer to a lease request.
type LeaseResponse struct {
	State   string `json:"state"`
	RetryMs int64  `json:"retry_ms,omitempty"`
	Missing int    `json:"missing,omitempty"` // cells given up on (StateDone)
	Grant   *Grant `json:"grant,omitempty"`
}

// HeartbeatRequest extends a lease's deadline. Heartbeats are the only
// keepalive, so a worker whose heartbeats stall while it computes loses its
// lease.
type HeartbeatRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"lease_id"`
}

// HeartbeatResponse acknowledges a heartbeat. OK is false when the lease is
// unknown (expired and reclaimed, or from a previous coordinator life).
// Cancel tells the worker to stop heartbeating the lease: its cell has
// already been completed by someone else, or the coordinator is draining.
type HeartbeatResponse struct {
	OK     bool `json:"ok"`
	Cancel bool `json:"cancel,omitempty"`
}

// CompleteRequest brings a lease's finished cell home and ends the lease.
// Cells must hold exactly that one cell; the coordinator refuses any other
// count. Sum is the integrity digest of Cells
// (PayloadSum); the coordinator rejects payloads whose digest does not
// match, so a corrupted result cannot poison the store with a
// wrong-but-well-formed number.
type CompleteRequest struct {
	Worker  string                `json:"worker"`
	LeaseID string                `json:"lease_id"`
	Cells   []campaign.CellResult `json:"cells"`
	Sum     string                `json:"sum"`

	// Done is ignored: every accepted completion ends its lease. The field
	// stays only because perfbench's transport test still sets it; delete
	// it with that line.
	Done bool `json:"done,omitempty"`

	// CellMs carries the worker-measured compute duration of each cell
	// in Cells, in milliseconds, for the coordinator's trace and
	// latency histogram. Telemetry only: it rides outside the sealed
	// payload (Sum digests Cells alone), so a missing or garbled timing
	// can skew a trace but never a result.
	CellMs []float64 `json:"cell_ms,omitempty"`
}

// CompleteResponse acknowledges (or rejects) a completion payload.
type CompleteResponse struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// FailRequest surrenders a lease after a compute error or a rejected
// completion; the coordinator re-queues the lease's cell with backoff,
// exactly as if the lease had expired.
type FailRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"lease_id"`
	Reason  string `json:"reason"`
}

// FailResponse acknowledges a surrender.
type FailResponse struct {
	OK bool `json:"ok"`
}

// LeaseInfo describes one active lease in a status report.
type LeaseInfo struct {
	LeaseID  string `json:"lease_id"`
	Worker   string `json:"worker"`
	Key      string `json:"key"` // the leased cell's content key
	AgeMs    int64  `json:"age_ms"`
	ExpireMs int64  `json:"expire_ms"` // until deadline; negative = overdue
}

// StatusResponse is the coordinator's live progress report.
type StatusResponse struct {
	Campaign  string          `json:"campaign"`
	SweepHash string          `json:"sweep_hash"`
	Params    campaign.Params `json:"params"`

	Total     int `json:"total"`
	Done      int `json:"done"`
	Leased    int `json:"leased"`  // incomplete cells under at least one active lease
	Pending   int `json:"pending"` // incomplete cells under no lease
	Exhausted int `json:"exhausted"`
	Retries   int `json:"retries"` // lease expiries + failures in this coordinator's life

	Draining bool        `json:"draining"`
	Leases   []LeaseInfo `json:"leases,omitempty"`

	// Quarantined counts corrupt cell files the coordinator's store has
	// moved aside this run — silent data-loss recovery made visible.
	Quarantined int64 `json:"quarantined,omitempty"`

	// MissingKeys lists cells that are out of retry budget (capped at 20;
	// Exhausted is the full count).
	MissingKeys []string `json:"missing_keys,omitempty"`
}

// Complete reports whether the campaign has nothing left to schedule.
func (s StatusResponse) Complete() bool { return s.Done+s.Exhausted == s.Total }

// Transport is the worker's view of the coordinator. The HTTP client and the
// in-process loopback both implement it, which is what lets the fault
// harness wrap either one and chaos tests run without real processes. The
// error return is transport failure only (connection refused, coordinator
// down); protocol-level rejections ride in the response types.
type Transport interface {
	Lease(LeaseRequest) (LeaseResponse, error)
	Heartbeat(HeartbeatRequest) (HeartbeatResponse, error)
	Complete(CompleteRequest) (CompleteResponse, error)
	Fail(FailRequest) (FailResponse, error)
	Status() (StatusResponse, error)
}

// PayloadSum digests a completion payload: sha256 over the canonical JSON of
// the cell results. Workers seal payloads with it; the coordinator recomputes
// and refuses mismatches.
func PayloadSum(cells []campaign.CellResult) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(cells); err != nil {
		// CellResult is a fixed schema of scalars; encoding cannot fail.
		panic(fmt.Sprintf("coord: encoding completion payload: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
