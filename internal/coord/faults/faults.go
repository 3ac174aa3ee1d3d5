// Package faults is the campaign control plane's deterministic
// fault-injection harness. A seeded Plan decides which worker misbehaves,
// how, and when; the faults are injected at the two seams every deployment
// already has — the worker's Transport (both the HTTP client and the
// in-process loopback implement it) and the worker's cell hooks — so chaos
// tests drive coordinator + workers inside one `go test` process, no real
// processes, and assert the final store is bit-identical to an unfaulted
// run.
package faults

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/coord"
	"dcra/internal/rng"
)

// Kind names one fault mode.
type Kind string

const (
	// WorkerCrash kills the worker mid-lease (kill -9: no Fail, no
	// cleanup); the coordinator's heartbeat deadline reclaims the work.
	WorkerCrash Kind = "worker-crash"
	// StalledHeartbeat silently drops every heartbeat after the trigger
	// while the worker keeps computing: its lease expires and is re-leased,
	// and its late completions arrive as harmless duplicates.
	StalledHeartbeat Kind = "stalled-heartbeat"
	// SlowLoris keeps heartbeating but computes absurdly slowly (Delay per
	// cell after the trigger), exercising speculative straggler re-dispatch.
	SlowLoris Kind = "slow-loris"
	// CorruptPayload flips a result value inside one sealed completion
	// payload in flight, exercising the coordinator's digest rejection and
	// the retry path.
	CorruptPayload Kind = "corrupt-payload"
	// CoordinatorRestart is a harness-level fault: the test (or operator)
	// kills the coordinator after the trigger count of completed cells and
	// restarts it from its checkpoint and store. Workers see transport
	// errors and retry.
	CoordinatorRestart Kind = "coordinator-restart"
)

// workerKinds lists the fault modes a worker injects into itself: every mode
// but CoordinatorRestart, which the harness owns.
func workerKinds() []Kind {
	return []Kind{WorkerCrash, StalledHeartbeat, SlowLoris, CorruptPayload}
}

// Kinds lists every fault mode, for chaos matrices.
func Kinds() []Kind { return append(workerKinds(), CoordinatorRestart) }

// KindList renders the worker fault modes Parse accepts, for flag help text.
func KindList() string {
	var b strings.Builder
	for i, k := range workerKinds() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(k))
	}
	return b.String()
}

// Fault is one concrete injection.
type Fault struct {
	Kind Kind
	// Worker indexes which worker misbehaves (harness-assigned).
	Worker int
	// After is the trigger: cells computed (WorkerCrash, SlowLoris),
	// heartbeats sent (StalledHeartbeat), completions sent
	// (CorruptPayload), or cells completed campaign-wide
	// (CoordinatorRestart).
	After int
	// Delay is SlowLoris's per-cell stall.
	Delay time.Duration
}

func (f Fault) String() string {
	s := fmt.Sprintf("%s:worker=%d:after=%d", f.Kind, f.Worker, f.After)
	if f.Delay > 0 {
		s += ":delay=" + f.Delay.String()
	}
	return s
}

// Derive builds the deterministic fault of one (kind, seed) pair for a
// fleet of `workers`: the seed picks the misbehaving worker and the trigger
// point, so a chaos matrix over kinds × seeds explores different victims and
// phases without any test-local randomness.
func Derive(kind Kind, seed uint64, workers int, slowDelay time.Duration) Fault {
	h := sha256.Sum256([]byte(kind))
	rg := rng.New(seed ^ binary.LittleEndian.Uint64(h[:8]))
	return Fault{
		Kind:   kind,
		Worker: rg.Intn(max(workers, 1)),
		After:  1 + rg.Intn(3),
		Delay:  slowDelay,
	}
}

// Parse reads the CLI fault spec "kind[:after=N][:delay=D]", e.g.
// "worker-crash:after=3" or "slow-loris:after=1:delay=500ms". Worker is left
// 0: a CLI fault applies to the process it was passed to, so only the worker
// fault modes parse.
func Parse(spec string) (Fault, error) {
	parts := strings.Split(spec, ":")
	f := Fault{Kind: Kind(parts[0]), After: 1}
	if !slices.Contains(workerKinds(), f.Kind) {
		return f, fmt.Errorf("faults: unknown worker fault kind %q (have %v)", parts[0], workerKinds())
	}
	for _, p := range parts[1:] {
		key, val, ok := strings.Cut(p, "=")
		if !ok {
			return f, fmt.Errorf("faults: malformed fault option %q in %q", p, spec)
		}
		switch key {
		case "after":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return f, fmt.Errorf("faults: bad after=%q in %q", val, spec)
			}
			f.After = n
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil {
				return f, fmt.Errorf("faults: bad delay=%q in %q: %v", val, spec, err)
			}
			f.Delay = d
		default:
			return f, fmt.Errorf("faults: unknown fault option %q in %q", key, spec)
		}
	}
	if f.Kind == SlowLoris && f.Delay == 0 {
		f.Delay = 500 * time.Millisecond
	}
	return f, nil
}

// Injector applies one fault to one worker. Hooks covers the worker-side
// faults (crash, slow compute); Wrap covers the transport-side faults
// (dropped heartbeats, corrupted payloads). CoordinatorRestart has no
// injector behaviour — the harness owns it.
type Injector struct {
	Fault Fault

	heartbeats atomic.Int64
	completes  atomic.Int64
}

// NewInjector builds the injector for one fault.
func NewInjector(f Fault) *Injector {
	return &Injector{Fault: f}
}

// Hooks returns the worker hooks implementing the fault's compute-side
// behaviour.
func (in *Injector) Hooks() coord.WorkerHooks {
	switch in.Fault.Kind {
	case WorkerCrash:
		return coord.WorkerHooks{BeforeCell: func(n int, _ campaign.Cell) error {
			if n >= in.Fault.After {
				return coord.ErrKilled
			}
			return nil
		}}
	case SlowLoris:
		return coord.WorkerHooks{BeforeCell: func(n int, _ campaign.Cell) error {
			if n >= in.Fault.After {
				time.Sleep(in.Fault.Delay)
			}
			return nil
		}}
	}
	return coord.WorkerHooks{}
}

// Wrap returns t with the fault's transport-side behaviour applied.
func (in *Injector) Wrap(t coord.Transport) coord.Transport {
	switch in.Fault.Kind {
	case StalledHeartbeat, CorruptPayload:
		return &faultyTransport{Transport: t, in: in}
	}
	return t
}

// faultyTransport intercepts the calls the fault tampers with and passes
// everything else through.
type faultyTransport struct {
	coord.Transport
	in *Injector
}

func (ft *faultyTransport) Heartbeat(req coord.HeartbeatRequest) (coord.HeartbeatResponse, error) {
	in := ft.in
	if in.Fault.Kind == StalledHeartbeat && in.heartbeats.Add(1) > int64(in.Fault.After) {
		// Swallow: the coordinator never sees it; the worker believes all is
		// well and keeps computing.
		return coord.HeartbeatResponse{OK: true}, nil
	}
	return ft.Transport.Heartbeat(req)
}

func (ft *faultyTransport) Complete(req coord.CompleteRequest) (coord.CompleteResponse, error) {
	in := ft.in
	if in.Fault.Kind == CorruptPayload && in.completes.Add(1) == int64(in.Fault.After+1) {
		// Corrupt the payload after it was sealed: the digest no longer
		// matches, exactly like bit rot on the wire.
		for i := range req.Cells {
			req.Cells[i].Result.Throughput += 1.0
		}
	}
	return ft.Transport.Complete(req)
}
