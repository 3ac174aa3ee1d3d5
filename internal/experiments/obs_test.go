package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"dcra/internal/obs"
)

// TestFigure5BitIdenticalWithTelemetry is the telemetry layer's
// non-interference contract on the paper's headline experiment: running
// Figure 5 with the full observability stack attached (metrics registry,
// span tracer, engine, pool and sampled-run instrumentation) must produce
// bit-identical results to an uninstrumented run — and the instruments must
// actually have seen the work.
func TestFigure5BitIdenticalWithTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}

	plain := determinismSuite(8)
	ref, err := Figure5(plain)
	if err != nil {
		t.Fatal(err)
	}

	instrumented := determinismSuite(8)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	instrumented.Instrument(reg, tracer)
	// The fleet-health layer samples live registries into time-series rings
	// while work runs; do the same here so the bit-identity contract covers
	// concurrent ring sampling, not just passive instrument attachment.
	ring := obs.NewRing(64)
	stopSampling := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		at := int64(0)
		for {
			select {
			case <-stopSampling:
				return
			default:
				at++
				ring.Record(at, reg.Snapshot())
			}
		}
	}()
	got, err := Figure5(instrumented)
	close(stopSampling)
	<-samplerDone
	ring.Record(1<<30, reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(ref, got) {
		t.Errorf("Figure 5 diverges under telemetry:\nplain:        %+v\ninstrumented: %+v", ref, got)
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(refJSON) != string(gotJSON) {
		t.Error("Figure 5 serializes differently under telemetry")
	}

	// The run must also have been observed: cells counted and spanned, the
	// machine pool consulted.
	snap := reg.Snapshot()
	started, done := snap.Counters["engine.cells.started"], snap.Counters["engine.cells.done"]
	if started == 0 || started != done {
		t.Errorf("engine counted %d cells started, %d done; want equal and > 0", started, done)
	}
	if snap.Counters["pool.machine.hits"]+snap.Counters["pool.machine.misses"] == 0 {
		t.Error("machine pool saw no traffic under an instrumented suite")
	}
	if h := snap.Histograms["engine.cell.us"]; h.Count != done {
		t.Errorf("engine.cell.us observed %d durations, want %d", h.Count, done)
	}
	if tracer.Len() == 0 {
		t.Error("tracer recorded no spans for an instrumented Figure 5 run")
	}

	// The ring sampled the run while it was live: its newest cumulative
	// snapshot agrees with the final registry state, and a windowed delta
	// never exceeds the total (the hot sampler overflows the ring, so the
	// window spans oldest-held to newest, not all of history).
	if ring.Len() < 2 {
		t.Fatalf("sampler recorded %d ring intervals, want >= 2", ring.Len())
	}
	iv := ring.Intervals()
	if newest := iv[len(iv)-1].Snap.Counters["engine.cells.done"]; newest != done {
		t.Errorf("ring's newest sample saw %d cells done, registry says %d", newest, done)
	}
	if win, fromAt, toAt, ok := ring.Window(0); !ok {
		t.Error("ring window unavailable after sampling")
	} else if d := win.Counters["engine.cells.done"]; d < 0 || d > done || fromAt >= toAt {
		t.Errorf("ring window delta %d over [%d,%d] inconsistent with %d total cells",
			d, fromAt, toAt, done)
	}
}
