package coord

import (
	"time"

	"dcra/internal/obs"
)

// coordHealthRingCap bounds the coordinator's wall-clock health ring: at
// `campaign run`'s 2s tick that is ~8.5 minutes of history, enough for the
// status report's windows without unbounded growth.
const coordHealthRingCap = 256

// CellSLO declares the coordinator's wall-clock cell-latency objective: the
// Quantile-quantile of worker-reported cell execution time (coord.cell.us),
// over the last Window health intervals, must stay at or below TargetMs.
// The zero value disables the objective.
type CellSLO struct {
	Quantile float64 `json:"quantile"`
	TargetMs int64   `json:"target_ms"`
	Window   int     `json:"window"` // health intervals; <= 0 means all history held
}

// Enabled reports whether the objective is declared.
func (s CellSLO) Enabled() bool { return s.Quantile > 0 && s.TargetMs > 0 }

// HealthInfo is the windowed-health slice of a status report: recent
// control-plane rates derived from the coordinator's time-series ring, plus
// the cell-latency SLO verdict when one is declared.
type HealthInfo struct {
	Intervals int   `json:"intervals"` // intervals currently held
	WindowMs  int64 `json:"window_ms"` // span the rates below cover

	CellsDone     int64   `json:"cells_done"` // within the window
	CellsPerSec   float64 `json:"cells_per_sec"`
	LeasesGranted int64   `json:"leases_granted"`
	LeasesExpired int64   `json:"leases_expired"`
	LeasesFailed  int64   `json:"leases_failed"`
	Speculated    int64   `json:"speculated"`
	Heartbeats    int64   `json:"heartbeats"`

	SLO *obs.SLOStatus `json:"slo,omitempty"`
}

// HealthTick snapshots the coordinator's metrics registry into its
// wall-clock health ring. The caller owns the cadence (runCampaign ticks
// on its wait loop); without an Obs registry the tick is a no-op. A breach
// of the declared cell SLO is charged to coord.slo.breaches and recorded in
// the flight recorder once per breaching tick.
func (c *Coordinator) HealthTick() {
	if c.health == nil {
		return
	}
	c.health.Record(time.Now().UnixMilli(), c.opts.Obs.Snapshot())
	if !c.opts.CellSLO.Enabled() {
		return
	}
	st := c.health.EvalSLO(obs.SLO{
		Metric:   "coord.cell.us",
		Quantile: c.opts.CellSLO.Quantile,
		Target:   c.opts.CellSLO.TargetMs * 1_000, // the histogram is microseconds
		Window:   c.opts.CellSLO.Window,
	})
	if st.Met || st.Observations == 0 {
		return
	}
	c.o.sloBreaches.Inc()
	c.flightf("slo-breach", "cell latency p%g=%.0fus over target %dms: attained %.4f of %d cells, burn %.2fx",
		c.opts.CellSLO.Quantile*100, st.QuantileValue, c.opts.CellSLO.TargetMs,
		st.Attained, st.Observations, st.Burn)
}

// healthLocked assembles the status report's health slice from the ring:
// deltas over the trailing window (up to the whole ring) plus the SLO
// verdict. Nil when the coordinator runs uninstrumented or never ticked.
func (c *Coordinator) healthLocked() *HealthInfo {
	if c.health == nil || c.health.Len() == 0 {
		return nil
	}
	// For rates, the window is clamped to "oldest held interval to newest"
	// — both an unbounded window and one wider than the history held would
	// otherwise hit Window's zero baseline and date the span from the
	// epoch. A single interval has no measurable span; its cumulative
	// counts are still reported, with the rate left at zero.
	win := c.opts.CellSLO.Window
	if win <= 0 || win > c.health.Len()-1 {
		win = c.health.Len() - 1
	}
	delta, fromMs, toMs, ok := c.health.Window(win)
	if !ok {
		return nil
	}
	if win == 0 {
		fromMs = toMs
	}
	h := &HealthInfo{
		Intervals:     c.health.Len(),
		WindowMs:      toMs - fromMs,
		CellsDone:     delta.Counters["coord.cells.done"],
		LeasesGranted: delta.Counters["coord.leases.granted"],
		LeasesExpired: delta.Counters["coord.leases.expired"],
		LeasesFailed:  delta.Counters["coord.leases.failed"],
		Speculated:    delta.Counters["coord.leases.speculated"],
		Heartbeats:    delta.Counters["coord.heartbeats"],
	}
	if h.WindowMs > 0 {
		h.CellsPerSec = float64(h.CellsDone) / (float64(h.WindowMs) / 1e3)
	}
	if c.opts.CellSLO.Enabled() {
		st := c.health.EvalSLO(obs.SLO{
			Metric:   "coord.cell.us",
			Quantile: c.opts.CellSLO.Quantile,
			Target:   c.opts.CellSLO.TargetMs * 1_000,
			Window:   c.opts.CellSLO.Window, // the declared window, as HealthTick judges it
		})
		h.SLO = &st
	}
	return h
}

// flightf records one control-plane event in the flight recorder; a no-op
// without one.
func (c *Coordinator) flightf(kind, format string, args ...any) {
	c.opts.Flight.Record(kind, format, args...)
}

// Flight returns the recorder the coordinator was built with (nil when
// disabled); abort paths dump it.
func (c *Coordinator) Flight() *obs.FlightRecorder { return c.opts.Flight }
