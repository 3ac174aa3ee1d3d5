// Package obs is the telemetry layer: a low-overhead metrics registry
// (atomic counters, fixed-bucket histograms), a span recorder
// emitting Chrome trace-event JSON, and probe series types for sampled
// machine introspection.
//
// Every instrument is nil-safe: a nil *Registry hands out nil
// instruments, and every method on a nil instrument is a no-op. Code
// under instrumentation resolves its instruments once and calls them
// unconditionally — when telemetry is off the calls cost a nil check
// and nothing else (no allocation, no atomics, no branches taken).
//
// Telemetry must never perturb results: instruments only ever *read*
// simulation state, and nothing here touches the simulation's RNG or
// event ordering.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket histogram over int64 observations.
// Bucket i counts observations v with v <= bounds[i] (and greater than
// bounds[i-1]); the final bucket is unbounded.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records v. No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(j int) bool { return v <= h.bounds[j] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations; 0 on a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observations; 0 on a nil histogram.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Common bucket bounds. Durations are in microseconds, roughly
// geometric from 100µs to 100s; cycles cover simulation windows from
// 1k to 10M; depths cover small integer levels; PPM buckets hold
// dimensionless ratios scaled by 1e6 (e.g. sampled CI half-widths).
var (
	DurationBounds = []int64{100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000, 10_000_000, 30_000_000, 100_000_000}
	CycleBounds    = []int64{1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000, 10_000_000}
	DepthBounds    = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128}
	PPMBounds      = []int64{1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000, 10_000_000}
)

// Registry resolves instruments by name. Resolution takes a mutex and
// is meant for setup paths; hot paths resolve once and hold the
// pointer. The zero registry value is not usable — use NewRegistry —
// but a nil *Registry is: it resolves every instrument to nil.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. The first registration wins: later calls
// return the existing histogram regardless of bounds. Returns nil on a
// nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		b := make([]int64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}
