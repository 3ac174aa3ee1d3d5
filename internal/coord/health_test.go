package coord_test

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/coord"
	"dcra/internal/obs"
)

// TestCoordinatorHealthAndFlight runs an instrumented fleet, ticking the
// health ring as it goes, and checks the whole fleet-health surface: the
// status report's windowed rates, an (impossible) cell SLO breaching into
// the flight recorder and the breach counter, and the lease lifecycle
// showing up as flight events.
func TestCoordinatorHealthAndFlight(t *testing.T) {
	sweep := chaosSweep(10)
	dir := t.TempDir()
	st, err := campaign.Open(dir, chaosParams)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(256)
	opts := fastOpts(t, dir, 1)
	opts.Obs = reg
	opts.Flight = flight
	// Every cell takes ~2ms of wall clock, so a 1ms p50 target must breach.
	// The declared window is far wider than the intervals this short run
	// holds: the status report must clamp it to the held history rather
	// than falling through to Window's zero baseline and dating the span
	// from the epoch.
	opts.CellSLO = coord.CellSLO{Quantile: 0.5, TargetMs: 1, Window: 3000}
	co, err := coord.New("chaos", sweep, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.NewHTTPHandler(co))
	defer srv.Close()

	// Tick the ring the way runCampaign does: once before work starts
	// (the zero baseline) and then periodically while the fleet runs, so
	// the windowed deltas cover the campaign's activity.
	co.HealthTick()
	tickStop := make(chan struct{})
	var ticker sync.WaitGroup
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		for {
			select {
			case <-tickStop:
				return
			case <-time.After(time.Millisecond):
				co.HealthTick()
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &coord.Worker{
			ID:        fmt.Sprintf("hw%d", i),
			Transport: &coord.HTTPTransport{Base: srv.URL},
			NewRunner: runnerFactory(newSlowRunner(2 * time.Millisecond)),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(); err != nil {
				t.Errorf("worker %s: %v", w.ID, err)
			}
		}()
	}
	wg.Wait()
	close(tickStop)
	ticker.Wait()
	co.HealthTick() // final interval holds the completed campaign

	status := co.Status()
	if !status.Complete() {
		t.Fatalf("campaign did not complete: %+v", status)
	}
	h := status.Health
	if h == nil {
		t.Fatal("status has no health slice after HealthTick")
	}
	if h.Intervals < 2 || h.CellsDone != int64(len(sweep.Cells)) {
		t.Errorf("health window %+v, want >=2 intervals covering %d cells", h, len(sweep.Cells))
	}
	if h.LeasesGranted == 0 {
		t.Errorf("health window shows no control-plane activity: %+v", h)
	}
	if h.WindowMs <= 0 || h.WindowMs > time.Hour.Milliseconds() {
		t.Errorf("implausible window span %dms", h.WindowMs)
	}
	if h.CellsPerSec <= 0 {
		t.Errorf("cells/sec = %g, want > 0 over a %dms window", h.CellsPerSec, h.WindowMs)
	}
	if h.SLO == nil || h.SLO.Met {
		t.Errorf("impossible cell SLO reported met: %+v", h.SLO)
	}
	if reg.Snapshot().Counters["coord.slo.breaches"] == 0 {
		t.Error("no coord.slo.breaches charged for a breaching tick")
	}

	kinds := make(map[string]int)
	for _, e := range flight.Events() {
		kinds[e.Kind]++
	}
	if kinds["lease"] == 0 {
		t.Errorf("flight recorder holds no lease events: %v", kinds)
	}
	if kinds["slo-breach"] == 0 {
		t.Errorf("flight recorder holds no slo-breach events: %v", kinds)
	}
}

// TestCoordinatorHealthDisabled checks the uninstrumented path: no registry
// means no ring, HealthTick is a no-op and the status carries no health.
func TestCoordinatorHealthDisabled(t *testing.T) {
	sweep := chaosSweep(2)
	dir := t.TempDir()
	st, err := campaign.Open(dir, chaosParams)
	if err != nil {
		t.Fatal(err)
	}
	co, err := coord.New("chaos", sweep, st, fastOpts(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	co.HealthTick() // must not panic
	if co.Status().Health != nil {
		t.Error("uninstrumented coordinator reported health")
	}
	if co.Flight() != nil {
		t.Error("uninstrumented coordinator has a flight recorder")
	}
}
