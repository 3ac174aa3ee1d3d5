package coord_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/coord"
	"dcra/internal/obs"
)

// traceDoc mirrors the Chrome trace-event JSON schema for assertions.
type traceDoc struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	} `json:"traceEvents"`
}

// TestTelemetryCoversFleet runs a healthy instrumented fleet and checks the
// acceptance bar of the telemetry layer: the span trace holds one cell span
// per completed cell plus the lease lifecycles, and the registry's counters
// agree with the coordinator's own accounting.
func TestTelemetryCoversFleet(t *testing.T) {
	sweep := chaosSweep(12)
	dir := t.TempDir()
	st, err := campaign.Open(dir, chaosParams)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	opts := fastOpts(t, 1)
	opts.Obs = reg
	opts.Tracer = tracer
	co, err := coord.New("chaos", sweep, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	lb := coord.NewLoopback(co)
	runner := newSlowRunner(2 * time.Millisecond)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		w := &coord.Worker{ID: fmt.Sprintf("w%d", i), Transport: lb, NewRunner: runnerFactory(runner)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(); err != nil {
				t.Errorf("worker %s: %v", w.ID, err)
			}
		}()
	}
	wg.Wait()
	if status := co.Status(); !status.Complete() || status.Done != len(sweep.Cells) {
		t.Fatalf("campaign did not complete: %+v", status)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["coord.cells.done"]; got != int64(len(sweep.Cells)) {
		t.Errorf("coord.cells.done = %d, want %d", got, len(sweep.Cells))
	}
	if snap.Counters["coord.leases.granted"] == 0 {
		t.Error("coord.leases.granted = 0, want > 0")
	}
	h := snap.Histograms["coord.cell.us"]
	if h.Count != int64(len(sweep.Cells)) {
		t.Errorf("coord.cell.us observed %d durations, want %d", h.Count, len(sweep.Cells))
	}
	var perWorker int64
	for name, v := range snap.Counters {
		if n, ok := strings.CutPrefix(name, "coord.worker.cells."); ok {
			t.Logf("worker %s completed %d cells", n, v)
			perWorker += v
		}
	}
	if perWorker != int64(len(sweep.Cells)) {
		t.Errorf("per-worker cell counters sum to %d, want %d", perWorker, len(sweep.Cells))
	}

	var buf bytes.Buffer
	if err := tracer.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	cellSpans := make(map[string]int)
	leaseSpans, leaseDone := 0, 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		switch e.Cat {
		case "cell":
			if e.PID != coord.TracePIDCells {
				t.Errorf("cell span %q on pid %d, want %d", e.Name, e.PID, coord.TracePIDCells)
			}
			cellSpans[e.Name]++
		case "lease":
			if e.PID != coord.TracePIDLeases {
				t.Errorf("lease span %q on pid %d, want %d", e.Name, e.PID, coord.TracePIDLeases)
			}
			leaseSpans++
			if strings.HasSuffix(e.Name, " done") {
				leaseDone++
			}
		}
	}
	// A healthy fleet computes each cell exactly once, so the trace must
	// cover every completed cell with exactly one span.
	for _, c := range sweep.Cells {
		if n := cellSpans["cell "+c.String()]; n != 1 {
			t.Errorf("cell %s has %d trace spans, want 1", c, n)
		}
	}
	if len(cellSpans) != len(sweep.Cells) {
		t.Errorf("trace holds %d distinct cell spans, want %d", len(cellSpans), len(sweep.Cells))
	}
	if leaseSpans == 0 || leaseDone == 0 {
		t.Errorf("trace holds %d lease spans (%d done), want both > 0", leaseSpans, leaseDone)
	}
}

// TestMetricsAndPprofEndpoints exercises the live introspection surface of
// an instrumented coordinator: /metrics serves the registry snapshot and the
// pprof handlers answer on the same mux.
func TestMetricsAndPprofEndpoints(t *testing.T) {
	sweep := chaosSweep(6)
	dir := t.TempDir()
	st, err := campaign.Open(dir, chaosParams)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts := fastOpts(t, 1)
	opts.Obs = reg
	co, err := coord.New("chaos", sweep, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.NewHTTPHandler(co))
	defer srv.Close()

	w := &coord.Worker{
		ID:        "metrics-w",
		Transport: &coord.HTTPTransport{Base: srv.URL},
		NewRunner: runnerFactory(newSlowRunner(time.Millisecond)),
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not a JSON snapshot: %v\n%s", err, body)
	}
	if snap.Counters["coord.cells.done"] != int64(len(sweep.Cells)) {
		t.Errorf("/metrics coord.cells.done = %d, want %d", snap.Counters["coord.cells.done"], len(sweep.Cells))
	}

	pp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %s", pp.Status)
	}
}

// TestMetricsEndpointUninstrumented checks that a coordinator built without
// a registry still answers /metrics with an empty JSON object.
func TestMetricsEndpointUninstrumented(t *testing.T) {
	sweep := chaosSweep(2)
	dir := t.TempDir()
	st, err := campaign.Open(dir, chaosParams)
	if err != nil {
		t.Fatal(err)
	}
	co, err := coord.New("chaos", sweep, st, fastOpts(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.NewHTTPHandler(co))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("uninstrumented /metrics is not valid JSON: %v", err)
	}
	if len(snap.Counters)+len(snap.Histograms) != 0 {
		t.Errorf("uninstrumented snapshot is not empty: %+v", snap)
	}
}
