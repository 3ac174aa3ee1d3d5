package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dcra/internal/obs"
)

// Engine executes independent simulation cells on a bounded worker pool.
// Simulation cells — one (config, workload, policy) run each — share no
// mutable state, so the experiment suite is embarrassingly parallel; the
// engine is the single place that decides how wide to fan out.
//
// A 1-worker engine degenerates to a plain serial loop in submission order,
// which the determinism tests compare against parallel execution: results
// must be bit-identical because each cell's simulation is a pure function
// of its inputs and a fixed seed.
type Engine struct {
	workers int

	// Reg and Tracer, when set, instrument every Run: cells
	// started/done counters, a per-cell wall-time histogram, and one
	// trace span per cell on the executing worker's lane. Both default
	// to nil (off); task execution itself is untouched either way.
	Reg    *obs.Registry
	Tracer *obs.Tracer
}

// NewEngine returns an engine with the given parallelism; workers <= 0
// selects GOMAXPROCS.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// Workers returns the configured parallelism.
func (e *Engine) Workers() int { return e.workers }

// Run executes task(0..n-1) across the worker pool and waits for all of
// them. Tasks must be independent and write only to their own slot of any
// shared output slice. Panics propagate to the caller.
func (e *Engine) Run(n int, task func(i int)) {
	e.RunLabeled(n, nil, task)
}

// RunLabeled is Run with an optional per-task label used to name trace
// spans; label is only consulted when the engine is instrumented, so
// callers may pass expensive formatters freely.
func (e *Engine) RunLabeled(n int, label func(i int) string, task func(i int)) {
	if n <= 0 {
		return
	}
	run := func(i, _ int) { task(i) }
	if e.Reg != nil || e.Tracer != nil {
		run = e.instrumented(label, task)
	}
	if e.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			run(i, 0)
		}
		return
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	var (
		next int64 = -1
		wg   sync.WaitGroup
	)
	panics := make(chan any, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
				}
			}()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				run(i, w)
			}
		}(w)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// EnginePID is the trace pid lane group engine worker spans live on. It must
// stay clear of the coordinator's lane groups (coord.TracePIDLeases = 0,
// coord.TracePIDCells = 1) because `campaign run -trace` attaches one tracer
// to both the coordinator and the render engine in one process.
const EnginePID = 4

// instrumented wraps task with the engine's telemetry: started/done
// counters, a per-cell wall-time histogram, and a span per cell on the
// worker's trace lane. Only built when Reg or Tracer is set.
func (e *Engine) instrumented(label func(i int) string, task func(i int)) func(i, w int) {
	started := e.Reg.Counter("engine.cells.started")
	done := e.Reg.Counter("engine.cells.done")
	cellUS := e.Reg.Histogram("engine.cell.us", obs.DurationBounds)
	e.Tracer.Process(EnginePID, "engine workers")
	return func(i, w int) {
		name := ""
		if e.Tracer != nil {
			if label != nil {
				name = label(i)
			} else {
				name = fmt.Sprintf("task %d", i)
			}
		}
		started.Inc()
		end := e.Tracer.Span(EnginePID, w, name, "engine-cell")
		t0 := time.Now()
		task(i)
		cellUS.Observe(time.Since(t0).Microseconds())
		end()
		done.Inc()
	}
}

// FirstError returns the first non-nil error in submission order, so error
// reporting is deterministic regardless of completion order.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
