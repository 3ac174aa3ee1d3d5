package sim

import (
	"reflect"
	"testing"

	"dcra/internal/config"
	"dcra/internal/cpu"
	"dcra/internal/obs"
	"dcra/internal/policy"
	"dcra/internal/workload"
)

// TestProbedRunBitIdentical is the probe's correctness contract, on the path
// `smtsim -probe` takes: sampling a measured window in interval-sized chunks
// must not change a single statistic relative to the same window run with a
// plain Machine.Run.
func TestProbedRunBitIdentical(t *testing.T) {
	w, err := workload.Get(2, workload.MEM, 1)
	if err != nil {
		t.Fatal(err)
	}
	const warmup, measure, interval = 10_000, 40_000, 7_000 // interval deliberately not a divisor
	run := func(probe bool) (*cpu.Machine, *obs.ProbeSeries) {
		m, err := cpu.New(config.Baseline(), w.Profiles(), policy.NewFlushPP(), 0x5eeddc2a)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(warmup)
		m.ResetStats()
		if !probe {
			m.Run(measure)
			return m, nil
		}
		return m, ProbeRun(m, measure, interval)
	}
	plain, _ := run(false)
	probed, series := run(true)

	wantSamples := int((measure + interval - 1) / interval)
	if len(series.Samples) != wantSamples {
		t.Errorf("probe has %d samples, want %d", len(series.Samples), wantSamples)
	}
	if last := series.Samples[len(series.Samples)-1]; last.Cycle != measure {
		t.Errorf("last sample at cycle %d, want %d", last.Cycle, measure)
	}
	for _, s := range series.Samples {
		if len(s.IPC) != 2 || len(s.ROBOcc) != 2 {
			t.Fatalf("sample %d has %d IPCs / %d ROB entries, want 2/2", s.Cycle, len(s.IPC), len(s.ROBOcc))
		}
	}
	if !reflect.DeepEqual(plain.Stats(), probed.Stats()) {
		t.Errorf("probed run diverged from plain run:\nplain:  %vprobed: %v", plain.Stats(), probed.Stats())
	}
}
