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
	// A live /metrics endpoint snapshots the registry while work runs; do
	// the same here so the bit-identity contract covers concurrent
	// snapshots, not just passive instrument attachment.
	stopSampling := make(chan struct{})
	samplerDone := make(chan struct{})
	snapshots := 0
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-stopSampling:
				return
			default:
				reg.Snapshot()
				snapshots++
			}
		}
	}()
	got, err := Figure5(instrumented)
	close(stopSampling)
	<-samplerDone
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
	if snapshots == 0 {
		t.Error("the sampler took no registry snapshot while Figure 5 ran")
	}
}
