package obs

import (
	"math"
	"sync"
	"testing"
)

// snapWithCounter builds a minimal snapshot holding one counter value.
func snapWithCounter(name string, v int64) Snapshot {
	return Snapshot{Counters: map[string]int64{name: v}}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := int64(1); i <= 10; i++ {
		r.Record(i*100, snapWithCounter("c", i))
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.dropped; got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	iv := r.Intervals()
	wantAt := []int64{700, 800, 900, 1000}
	for i, w := range wantAt {
		if iv[i].At != w {
			t.Errorf("interval %d at %d, want %d (oldest-first order broken)", i, iv[i].At, w)
		}
		if iv[i].Snap.Counters["c"] != w/100 {
			t.Errorf("interval %d counter %d, want %d", i, iv[i].Snap.Counters["c"], w/100)
		}
	}
	// Window over the last 2 intervals: counter delta 10-8.
	delta, fromAt, toAt, ok := r.Window(2)
	if !ok || delta.Counters["c"] != 2 || fromAt != 800 || toAt != 1000 {
		t.Errorf("Window(2) = %+v [%d,%d] ok=%t, want delta 2 over [800,1000]", delta.Counters, fromAt, toAt, ok)
	}
	// Whole-ring window with history dropped: best effort from the oldest
	// held interval, not from the (lost) zero baseline.
	delta, fromAt, _, ok = r.Window(0)
	if !ok || delta.Counters["c"] != 3 || fromAt != 700 {
		t.Errorf("Window(0) after drops = %+v from %d ok=%t, want delta 3 from 700", delta.Counters, fromAt, ok)
	}
}

func TestRingWindowBeforeWraparound(t *testing.T) {
	r := NewRing(8)
	r.Record(10, snapWithCounter("c", 5))
	r.Record(20, snapWithCounter("c", 9))
	// No drops yet: the whole-ring window is the cumulative snapshot itself
	// (delta from the zero baseline).
	delta, fromAt, toAt, ok := r.Window(0)
	if !ok || delta.Counters["c"] != 9 || fromAt != 0 || toAt != 20 {
		t.Errorf("Window(0) = %+v [%d,%d] ok=%t, want cumulative 9 over [0,20]", delta.Counters, fromAt, toAt, ok)
	}
}

func TestRingEmptyAndNil(t *testing.T) {
	var nilRing *Ring
	nilRing.Record(1, Snapshot{}) // must not panic
	if nilRing.Len() != 0 || nilRing.Intervals() != nil {
		t.Error("nil ring should be empty")
	}
	if _, _, _, ok := nilRing.Window(1); ok {
		t.Error("nil ring Window should not be ok")
	}
	st := nilRing.EvalSLO(SLO{Metric: "m", Quantile: 0.99, Target: 10})
	if !st.Met || st.Burn != 0 || st.Observations != 0 {
		t.Errorf("nil ring SLO should be vacuously met, got %+v", st)
	}
	empty := NewRing(4)
	if _, _, _, ok := empty.Window(0); ok {
		t.Error("empty ring Window should not be ok")
	}
}

func TestDeltaGaugesKeepLevel(t *testing.T) {
	cur := Snapshot{
		Counters: map[string]int64{"c": 10},
		Gauges:   map[string]int64{"g": 7},
	}
	prev := Snapshot{
		Counters: map[string]int64{"c": 4},
		Gauges:   map[string]int64{"g": 99},
	}
	d := Delta(cur, prev)
	if d.Counters["c"] != 6 {
		t.Errorf("counter delta = %d, want 6", d.Counters["c"])
	}
	if d.Gauges["g"] != 7 {
		t.Errorf("gauge in delta = %d, want the newest level 7", d.Gauges["g"])
	}
}

// observeAll records values into a registry histogram and snapshots it.
func histSnapshot(t *testing.T, bounds []int64, values []int64) HistogramSnapshot {
	t.Helper()
	reg := NewRegistry()
	h := reg.Histogram("h", bounds)
	for _, v := range values {
		h.Observe(v)
	}
	return reg.Snapshot().Histograms["h"]
}

func TestQuantileInterpolation(t *testing.T) {
	bounds := []int64{10, 20, 40}
	// 10 observations uniformly in (0,10], 10 in (10,20].
	var vals []int64
	for i := int64(1); i <= 10; i++ {
		vals = append(vals, i, 10+i)
	}
	h := histSnapshot(t, bounds, vals)
	if q, ok := h.Quantile(0.5); !ok || q != 10 {
		t.Errorf("p50 = %g ok=%t, want 10 (bucket boundary)", q, ok)
	}
	if q, ok := h.Quantile(0.75); !ok || q != 15 {
		t.Errorf("p75 = %g ok=%t, want 15 (midway through (10,20])", q, ok)
	}
	// Overflow clamps to the last finite bound.
	over := histSnapshot(t, bounds, []int64{100, 200, 300})
	if q, ok := over.Quantile(0.99); !ok || q != 40 {
		t.Errorf("overflow p99 = %g ok=%t, want clamp to 40", q, ok)
	}
	// Empty histogram: not ok.
	if _, ok := (HistogramSnapshot{Bounds: bounds, Counts: make([]int64, 4)}).Quantile(0.5); ok {
		t.Error("empty histogram quantile should not be ok")
	}
}

func TestFractionAtMost(t *testing.T) {
	bounds := []int64{10, 20, 40}
	var vals []int64
	for i := int64(1); i <= 10; i++ {
		vals = append(vals, i, 10+i)
	}
	h := histSnapshot(t, bounds, vals)
	cases := []struct {
		v    int64
		want float64
	}{
		{10, 0.5},  // first bucket entirely
		{20, 1.0},  // both buckets
		{15, 0.75}, // half of the second bucket interpolated
		{0, 0},     // below every observation
	}
	for _, c := range cases {
		if got, ok := h.FractionAtMost(c.v); !ok || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("FractionAtMost(%d) = %g ok=%t, want %g", c.v, got, ok, c.want)
		}
	}
}

// TestQuantilePermutationMergeInvariance is the windowed-quantile analogue of
// the snapshot-merge contract: merging per-shard histogram snapshots in any
// order yields the identical quantile estimate, bit for bit.
func TestQuantilePermutationMergeInvariance(t *testing.T) {
	bounds := []int64{100, 1_000, 10_000}
	shards := []Snapshot{}
	for s := 0; s < 4; s++ {
		reg := NewRegistry()
		h := reg.Histogram("lat", bounds)
		for i := 0; i < 50; i++ {
			h.Observe(int64((s*7919 + i*131) % 12_000))
		}
		shards = append(shards, reg.Snapshot())
	}
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}}
	var ref float64
	var refAttained float64
	for pi, perm := range perms {
		merged := Snapshot{}
		var err error
		for _, i := range perm {
			merged, err = Merge(merged, shards[i])
			if err != nil {
				t.Fatal(err)
			}
		}
		q, ok := merged.Histograms["lat"].Quantile(0.99)
		if !ok {
			t.Fatal("merged histogram unexpectedly empty")
		}
		a, _ := merged.Histograms["lat"].FractionAtMost(5_000)
		if pi == 0 {
			ref, refAttained = q, a
			continue
		}
		if q != ref || a != refAttained {
			t.Errorf("permutation %v: quantile %v / attained %v, want %v / %v (merge-order dependent!)",
				perm, q, a, ref, refAttained)
		}
	}
}

func TestEvalSLO(t *testing.T) {
	bounds := []int64{10, 100, 1_000}
	// 99 fast observations, 1 slow: p99 lands right around the target.
	var vals []int64
	for i := 0; i < 99; i++ {
		vals = append(vals, 5)
	}
	vals = append(vals, 500)
	win := Snapshot{Histograms: map[string]HistogramSnapshot{"lat": histSnapshot(t, bounds, vals)}}

	met := EvalSLO(SLO{Metric: "lat", Quantile: 0.95, Target: 100}, win)
	if !met.Met || met.Attained != 0.99 || met.Observations != 100 {
		t.Errorf("attainable SLO: %+v, want met with attained 0.99 over 100 obs", met)
	}
	if math.Abs(met.Burn-0.2) > 1e-9 { // (1-0.99)/(1-0.95)
		t.Errorf("burn = %g, want 0.2", met.Burn)
	}

	unmet := EvalSLO(SLO{Metric: "lat", Quantile: 0.999, Target: 100}, win)
	if unmet.Met || unmet.Burn <= 1 {
		t.Errorf("impossible SLO: %+v, want unmet with burn > 1", unmet)
	}

	// Zero error budget (quantile 1.0) with any miss: burn caps, not Inf.
	capped := EvalSLO(SLO{Metric: "lat", Quantile: 1.0, Target: 100}, win)
	if capped.Burn != maxBurn || capped.Met {
		t.Errorf("zero-budget SLO: %+v, want capped burn %g", capped, maxBurn)
	}

	// Empty window: vacuously met, zero burn.
	empty := EvalSLO(SLO{Metric: "lat", Quantile: 0.99, Target: 100}, Snapshot{})
	if !empty.Met || empty.Burn != 0 || empty.Attained != 1 {
		t.Errorf("empty window: %+v, want vacuously met", empty)
	}
}

// TestRingConcurrentHammer races Observe against Record/Window/EvalSLO;
// run under -race in CI. The final cumulative window must see every
// observation once the writers are done.
func TestRingConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", DurationBounds)
	c := reg.Counter("ops")
	r := NewRing(64)

	const writers = 8
	const perWriter = 5_000
	var observers sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		observers.Add(1)
		go func(wi int) {
			defer observers.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(int64((wi*31 + i) % 50_000))
				c.Inc()
			}
		}(wi)
	}
	stop := make(chan struct{})
	var snapshotter sync.WaitGroup
	snapshotter.Add(1)
	go func() { // records and reads concurrently with the observers
		defer snapshotter.Done()
		at := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			at++
			r.Record(at, reg.Snapshot())
			r.Window(8)
			r.EvalSLO(SLO{Metric: "lat", Quantile: 0.99, Target: 1_000, Window: 8})
			r.Intervals()
		}
	}()
	observers.Wait()
	close(stop)
	snapshotter.Wait()

	// A final record after every observer finished must account for every
	// observation, on both the cumulative instruments and the ring's newest
	// interval.
	r.Record(1<<30, reg.Snapshot())
	iv := r.Intervals()
	newest := iv[len(iv)-1].Snap
	if got := newest.Histograms["lat"].Count; got != writers*perWriter {
		t.Fatalf("newest interval saw %d observations, want %d", got, writers*perWriter)
	}
	if c.Value() != writers*perWriter {
		t.Fatalf("counter %d, want %d", c.Value(), writers*perWriter)
	}
}
