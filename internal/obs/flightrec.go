package obs

// FlightRecorder records nothing: the coordinator's event log
// (coord.Options.Logf) is its only record of control-plane events.
//
// Deprecated: it remains only because the benchmark's campaign rig
// (perfbench/campaign.go) still builds one; ROADMAP item 8 deletes it with
// that line.
type FlightRecorder struct{}

// NewFlightRecorder returns an inert recorder; capacity is ignored.
//
// Deprecated: it remains only because the benchmark's campaign rig still
// calls it; ROADMAP item 8 deletes it with that line.
func NewFlightRecorder(capacity int) *FlightRecorder { return &FlightRecorder{} }
