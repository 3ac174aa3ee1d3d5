package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Tracer records spans in the Chrome trace-event format, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Spans live on (pid,
// tid) lanes: the coordinator uses wall-clock lanes per worker, the
// simulators use cycle-domain lanes (simulation cycles reported as
// microseconds), which makes their traces deterministic.
//
// A nil *Tracer is a valid, disabled tracer: every method is a no-op
// and Span returns a shared no-op closure, so disabled call sites
// allocate nothing.
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	events []traceEvent
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTracer returns a tracer whose wall-clock span timestamps are
// microseconds since this call.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

func (t *Tracer) now() float64 {
	return float64(time.Since(t.start)) / float64(time.Microsecond)
}

var noopEnd = func() {}

// Since converts a wall-clock instant to a trace timestamp:
// microseconds since the tracer started. 0 on a nil tracer.
func (t *Tracer) Since(at time.Time) float64 {
	if t == nil {
		return 0
	}
	return float64(at.Sub(t.start)) / float64(time.Microsecond)
}

// Span opens a wall-clock span on lane (pid, tid) and returns the
// closure that ends it. On a nil tracer it returns a shared no-op.
func (t *Tracer) Span(pid, tid int, name, cat string) func() {
	if t == nil {
		return noopEnd
	}
	begin := t.now()
	return func() {
		t.CompleteAt(pid, tid, name, cat, begin, t.now()-begin)
	}
}

// CompleteAt records a complete span with explicit timestamp and
// duration (both in microseconds — or simulation cycles for
// cycle-domain traces). No-op on a nil tracer.
func (t *Tracer) CompleteAt(pid, tid int, name, cat string, ts, dur float64) {
	if t == nil {
		return
	}
	t.append(traceEvent{Name: name, Cat: cat, Ph: "X", TS: ts, Dur: dur, PID: pid, TID: tid})
}

// Process names a pid lane group in the trace viewer. No-op on a nil
// tracer.
func (t *Tracer) Process(pid int, name string) {
	if t == nil {
		return
	}
	t.append(traceEvent{Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": name}})
}

// Lane names a (pid, tid) lane in the trace viewer. No-op on a nil
// tracer.
func (t *Tracer) Lane(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.append(traceEvent{Name: "thread_name", Ph: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": name}})
}

func (t *Tracer) append(e traceEvent) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Len returns the number of recorded events; 0 on a nil tracer.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Write writes the trace as a Chrome trace-event JSON object.
func (t *Tracer) Write(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	t.mu.Lock()
	events := make([]traceEvent, len(t.events))
	copy(events, t.events)
	t.mu.Unlock()
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteFile writes the trace to path.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: writing trace: %w", err)
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing trace: %w", err)
	}
	return f.Close()
}
