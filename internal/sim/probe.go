package sim

import (
	"dcra/internal/cpu"
	"dcra/internal/obs"
)

// ProbeRun advances m by measure cycles in interval-sized chunks,
// sampling per-thread IPC (over each interval, from the machine's own
// committed-uop counts) and instantaneous ROB occupancy at every tick.
// Because Machine.Run is a plain step loop, chunked advancement is
// bit-identical to one m.Run(measure) call — the probe observes the run,
// it never steers it (TestProbedRunBitIdentical asserts this).
func ProbeRun(m *cpu.Machine, measure, interval uint64) *obs.ProbeSeries {
	nt := m.NumThreads()
	series := &obs.ProbeSeries{Interval: interval}
	prev := make([]uint64, nt)
	for t := range prev {
		prev[t] = m.Stats().Threads[t].Committed
	}
	start := m.Cycle()
	var done uint64
	for done < measure {
		chunk := interval
		if rest := measure - done; chunk > rest {
			chunk = rest
		}
		m.Run(chunk)
		done += chunk
		s := obs.ProbeSample{
			Cycle:  m.Cycle() - start,
			IPC:    make([]float64, nt),
			ROBOcc: make([]int, nt),
		}
		for t := 0; t < nt; t++ {
			committed := m.Stats().Threads[t].Committed
			s.IPC[t] = float64(committed-prev[t]) / float64(chunk)
			prev[t] = committed
			s.ROBOcc[t] = m.Usage(t, cpu.RROB)
		}
		series.Samples = append(series.Samples, s)
	}
	return series
}
