package obs

// ProbeSample is one tick of the periodic machine probe: per-thread
// IPC over the interval just elapsed and instantaneous per-thread ROB
// occupancy at the tick. The probe only reads committed-uop counts and
// resource levels, so a probed run is bit-identical to an unprobed one.
type ProbeSample struct {
	Cycle  uint64    `json:"cycle"`
	IPC    []float64 `json:"ipc"`
	ROBOcc []int     `json:"rob_occ"`
}

// ProbeSeries is the time-series a probed measurement window produces;
// `smtsim -probe N` reports it in sched.RunStats behind an omitempty field,
// so unprobed output is unchanged.
type ProbeSeries struct {
	Interval uint64        `json:"interval"`
	Samples  []ProbeSample `json:"samples"`
}
