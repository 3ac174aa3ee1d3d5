package obs

import (
	"math"
	"sync"
)

// Interval is one recorded slot of a Ring: a cumulative registry snapshot
// stamped with the tick it was taken at. The tick domain is the caller's;
// the coordinator's health ring records wall-clock milliseconds.
type Interval struct {
	At   int64    `json:"at"`
	Snap Snapshot `json:"snap"`
}

// Ring is a fixed-capacity time-series ring of registry snapshots. Writers
// call Record once per interval boundary — never on a simulation or serving
// hot path — so the mutex is cheap by construction: contention is bounded by
// the tick rate, not the event rate. Once full, the oldest interval is
// overwritten and counted as dropped.
//
// A nil *Ring is a valid, disabled ring: every method is a no-op or returns
// a zero value, matching the nil-instrument contract of the rest of the
// package.
type Ring struct {
	mu      sync.Mutex
	slots   []Interval
	head    int // next write position
	n       int // valid slots
	dropped int64
}

// NewRing returns a ring holding up to capacity intervals (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{slots: make([]Interval, capacity)}
}

// Record appends one interval. No-op on a nil ring.
func (r *Ring) Record(at int64, snap Snapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.n == len(r.slots) {
		r.dropped++
	} else {
		r.n++
	}
	r.slots[r.head] = Interval{At: at, Snap: snap}
	r.head = (r.head + 1) % len(r.slots)
	r.mu.Unlock()
}

// Len returns the number of intervals currently held; 0 on a nil ring.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Intervals returns a copy of the held intervals, oldest first. Nil on a nil
// or empty ring.
func (r *Ring) Intervals() []Interval {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.intervalsLocked()
}

func (r *Ring) intervalsLocked() []Interval {
	if r.n == 0 {
		return nil
	}
	out := make([]Interval, r.n)
	start := (r.head - r.n + len(r.slots)) % len(r.slots)
	for i := 0; i < r.n; i++ {
		out[i] = r.slots[(start+i)%len(r.slots)]
	}
	return out
}

// Window returns the delta snapshot spanning the most recent k intervals:
// the newest snapshot minus the snapshot k intervals back. Counters and
// histogram counts/sums subtract; gauges keep their newest level (a gauge is
// an instantaneous reading, not an accumulation). When the ring holds fewer
// than k+1 intervals the window reaches back to the oldest held interval —
// and, if nothing has been dropped yet, all the way to the zero baseline, so
// the delta is the newest cumulative snapshot itself. k <= 0 means "the
// whole ring". ok is false when the ring is nil or empty.
func (r *Ring) Window(k int) (delta Snapshot, fromAt, toAt int64, ok bool) {
	if r == nil {
		return Snapshot{}, 0, 0, false
	}
	r.mu.Lock()
	iv := r.intervalsLocked()
	dropped := r.dropped
	r.mu.Unlock()
	if len(iv) == 0 {
		return Snapshot{}, 0, 0, false
	}
	newest := iv[len(iv)-1]
	if k <= 0 || k > len(iv)-1 {
		if dropped == 0 {
			// Full history: the cumulative snapshot is its own delta from zero.
			return newest.Snap, 0, newest.At, true
		}
		k = len(iv) - 1
		if k == 0 {
			// One interval and history lost: no baseline to subtract.
			return Snapshot{}, 0, 0, false
		}
	}
	base := iv[len(iv)-1-k]
	return Delta(newest.Snap, base.Snap), base.At, newest.At, true
}

// Delta returns cur minus prev: counters and histogram counts/sums subtract
// elementwise, gauges carry cur's level unchanged. Histograms present in cur
// but absent from prev (or with different bounds — a re-registered
// instrument) are taken whole. Like Merge, every quantity is an integer, so
// the result is exact.
func Delta(cur, prev Snapshot) Snapshot {
	var out Snapshot
	if len(cur.Counters) > 0 {
		out.Counters = make(map[string]int64, len(cur.Counters))
		for k, v := range cur.Counters {
			out.Counters[k] = v - prev.Counters[k]
		}
	}
	if len(cur.Gauges) > 0 {
		out.Gauges = make(map[string]int64, len(cur.Gauges))
		for k, v := range cur.Gauges {
			out.Gauges[k] = v
		}
	}
	if len(cur.Histograms) > 0 {
		out.Histograms = make(map[string]HistogramSnapshot, len(cur.Histograms))
		for name, h := range cur.Histograms {
			d := HistogramSnapshot{
				Bounds: append([]int64(nil), h.Bounds...),
				Counts: append([]int64(nil), h.Counts...),
				Sum:    h.Sum,
				Count:  h.Count,
			}
			if p, ok := prev.Histograms[name]; ok && boundsEqual(p.Bounds, h.Bounds) {
				for i := range d.Counts {
					d.Counts[i] -= p.Counts[i]
				}
				d.Sum -= p.Sum
				d.Count -= p.Count
			}
			out.Histograms[name] = d
		}
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) of the histogram by linear
// interpolation inside the containing bucket: the standard
// fixed-bucket estimator (what Prometheus' histogram_quantile computes).
// Observations in the overflow bucket clamp to the last finite bound. ok is
// false on an empty histogram.
func (h HistogramSnapshot) Quantile(q float64) (float64, bool) {
	if h.Count <= 0 || len(h.Bounds) == 0 || math.IsNaN(q) {
		return 0, false
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if c < 0 {
			c = 0 // a racy window delta can dip transiently; clamp, don't wrap
		}
		next := cum + float64(c)
		if next >= rank && c > 0 {
			if i >= len(h.Bounds) {
				return float64(h.Bounds[len(h.Bounds)-1]), true
			}
			lo := float64(0)
			if i > 0 {
				lo = float64(h.Bounds[i-1])
			}
			hi := float64(h.Bounds[i])
			if lo > hi {
				lo = hi
			}
			return lo + (hi-lo)*((rank-cum)/float64(c)), true
		}
		cum = next
	}
	return float64(h.Bounds[len(h.Bounds)-1]), true
}

// FractionAtMost estimates the fraction of observations <= v by the same
// within-bucket interpolation as Quantile. ok is false on an empty
// histogram.
func (h HistogramSnapshot) FractionAtMost(v int64) (float64, bool) {
	if h.Count <= 0 || len(h.Bounds) == 0 {
		return 0, false
	}
	var cum float64
	for i, c := range h.Counts {
		if c < 0 {
			c = 0
		}
		if i >= len(h.Bounds) {
			// Overflow bucket: everything beyond the last bound counts as > v
			// unless v clears the last bound (handled below by cum).
			break
		}
		hi := float64(h.Bounds[i])
		if float64(v) >= hi {
			cum += float64(c)
			continue
		}
		lo := float64(0)
		if i > 0 {
			lo = float64(h.Bounds[i-1])
		}
		if float64(v) > lo && hi > lo {
			cum += float64(c) * (float64(v) - lo) / (hi - lo)
		}
		break
	}
	f := cum / float64(h.Count)
	return math.Min(f, 1), true
}

// SLO declares a windowed latency objective over one histogram family: the
// Quantile-quantile of the metric's observations over the last Window ring
// intervals must not exceed Target. Equivalently (and how attainment is
// computed): at least a Quantile fraction of windowed observations must be
// <= Target.
type SLO struct {
	Metric   string  `json:"metric"`
	Quantile float64 `json:"quantile"` // e.g. 0.99
	Target   int64   `json:"target"`   // in the metric's own unit
	Window   int     `json:"window"`   // ring intervals; <= 0 means the whole ring
}

// SLOStatus is one evaluation of an SLO over a window delta.
type SLOStatus struct {
	SLO
	Observations  int64   `json:"observations"`
	Attained      float64 `json:"attained"`       // fraction of observations <= Target
	QuantileValue float64 `json:"quantile_value"` // the windowed q-quantile estimate
	Burn          float64 `json:"burn"`           // error-budget burn: (1-Attained)/(1-Quantile)
	Met           bool    `json:"met"`
}

// maxBurn caps the error-budget burn rate so a fully-missed objective (or a
// Quantile of 1.0, whose error budget is zero) stays finite and
// JSON-encodable.
const maxBurn = 1e6

// EvalSLO evaluates one SLO against a window-delta snapshot. An empty window
// is vacuously met (no observations, no burn): a quiet service has not spent
// any error budget.
func EvalSLO(s SLO, window Snapshot) SLOStatus {
	st := SLOStatus{SLO: s, Attained: 1, Met: true}
	h, ok := window.Histograms[s.Metric]
	if !ok || h.Count <= 0 {
		return st
	}
	st.Observations = h.Count
	st.Attained, _ = h.FractionAtMost(s.Target)
	st.QuantileValue, _ = h.Quantile(s.Quantile)
	if miss := 1 - st.Attained; miss > 0 {
		if budget := 1 - s.Quantile; budget > miss/maxBurn {
			st.Burn = miss / budget
		} else {
			st.Burn = maxBurn
		}
	}
	st.Met = st.Attained >= s.Quantile
	return st
}

// EvalSLO evaluates the SLO over the ring's most recent s.Window intervals.
// On a nil or empty ring the SLO is vacuously met.
func (r *Ring) EvalSLO(s SLO) SLOStatus {
	delta, _, _, ok := r.Window(s.Window)
	if !ok {
		return SLOStatus{SLO: s, Attained: 1, Met: true}
	}
	return EvalSLO(s, delta)
}
