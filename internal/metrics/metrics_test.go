package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestHmeanEqualSpeedups(t *testing.T) {
	// Every thread at exactly half its single-thread speed: Hmean = 0.5.
	multi := []float64{1, 2, 0.5}
	single := []float64{2, 4, 1}
	if got := Hmean(multi, single); !almost(got, 0.5) {
		t.Fatalf("Hmean = %v, want 0.5", got)
	}
}

func TestHmeanPunishesStarvation(t *testing.T) {
	single := []float64{2, 2}
	balanced := Hmean([]float64{1, 1}, single)
	starved := Hmean([]float64{1.9, 0.1}, single)
	if starved >= balanced {
		t.Fatalf("starved (%v) should score below balanced (%v)", starved, balanced)
	}
	// Weighted speedup, by contrast, ranks the starved case equal.
	if ws := WeightedSpeedup([]float64{1.9, 0.1}, single); !almost(ws, 0.5) {
		t.Fatalf("weighted speedup = %v, want 0.5", ws)
	}
}

func TestHmeanDegenerate(t *testing.T) {
	if Hmean(nil, nil) != 0 {
		t.Error("empty Hmean should be 0")
	}
	if Hmean([]float64{1}, []float64{1, 2}) != 0 {
		t.Error("length mismatch should be 0")
	}
	if Hmean([]float64{0}, []float64{1}) != 0 {
		t.Error("zero multi IPC should be 0")
	}
	if Hmean([]float64{1}, []float64{0}) != 0 {
		t.Error("zero baseline should be 0")
	}
}

func TestHmeanBoundedByMaxSpeedup(t *testing.T) {
	err := quick.Check(func(a, b uint16) bool {
		m := []float64{float64(a%100) + 1, float64(b%100) + 1}
		s := []float64{50, 50}
		h := Hmean(m, s)
		r0, r1 := m[0]/s[0], m[1]/s[1]
		lo, hi := math.Min(r0, r1), math.Max(r0, r1)
		return h >= lo-1e-9 && h <= hi+1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput([]float64{1, 2, 3}); !almost(got, 6) {
		t.Fatalf("Throughput = %v", got)
	}
	if Throughput(nil) != 0 {
		t.Fatal("empty throughput should be 0")
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(1.1, 1.0); !almost(got, 10) {
		t.Fatalf("Improvement = %v, want 10", got)
	}
	if got := Improvement(0.9, 1.0); !almost(got, -10) {
		t.Fatalf("Improvement = %v, want -10", got)
	}
	if Improvement(1, 0) != 0 {
		t.Fatal("zero base should yield 0")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); !almost(got, 2) {
		t.Fatalf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Input order must not matter, and the input must not be mutated.
	shuffled := []float64{40, 15, 50, 20, 35}
	if got := Percentile(shuffled, 50); !almost(got, 35) {
		t.Fatalf("Percentile on shuffled input = %v, want 35", got)
	}
	if shuffled[0] != 40 || shuffled[4] != 35 {
		t.Fatalf("Percentile mutated its input: %v", shuffled)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	if got := Percentile([]float64{7}, 99); !almost(got, 7) {
		t.Fatalf("single-sample p99 = %v, want 7", got)
	}
}

// TestPercentileExtremes pins the boundary ranks: any p <= 0 answers the
// minimum, p >= 100 the maximum, and a single sample answers itself at
// every p — including out-of-range requests.
func TestPercentileExtremes(t *testing.T) {
	xs := []float64{9, 1, 5}
	for _, p := range []float64{0, -10} {
		if got := Percentile(xs, p); !almost(got, 1) {
			t.Errorf("Percentile(p=%v) = %v, want the minimum 1", p, got)
		}
	}
	for _, p := range []float64{100, 250} {
		if got := Percentile(xs, p); !almost(got, 9) {
			t.Errorf("Percentile(p=%v) = %v, want the maximum 9", p, got)
		}
	}
	for _, p := range []float64{0, 50, 100} {
		if got := Percentile([]float64{7}, p); !almost(got, 7) {
			t.Errorf("single-sample Percentile(p=%v) = %v, want 7", p, got)
		}
		if got := Percentile(nil, p); got != 0 {
			t.Errorf("empty Percentile(p=%v) = %v, want 0", p, got)
		}
	}
}

// The nearest-rank percentile is always an element of the sample, bounded by
// its extremes, and monotone in p.
func TestPercentileProperties(t *testing.T) {
	err := quick.Check(func(a, b, c, d uint16, p uint8) bool {
		xs := []float64{float64(a), float64(b), float64(c), float64(d)}
		pp := float64(p % 101)
		v := Percentile(xs, pp)
		found := false
		for _, x := range xs {
			if x == v {
				found = true
			}
		}
		lo, hi := Percentile(xs, 0), Percentile(xs, 100)
		return found && v >= lo && v <= hi && Percentile(xs, pp) <= Percentile(xs, 100)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestJainFairness(t *testing.T) {
	if got := JainFairness([]float64{3, 3, 3}); !almost(got, 1) {
		t.Fatalf("equal allocations: Jain = %v, want 1", got)
	}
	// One of n entities holding everything scores exactly 1/n.
	if got := JainFairness([]float64{5, 0, 0, 0}); !almost(got, 0.25) {
		t.Fatalf("single-hog Jain = %v, want 0.25", got)
	}
	if got := JainFairness([]float64{1, 2}); !almost(got, 9.0/10) {
		t.Fatalf("Jain(1,2) = %v, want 0.9", got)
	}
	if JainFairness(nil) != 0 || JainFairness([]float64{0, 0}) != 0 {
		t.Fatal("degenerate Jain should be 0")
	}
	// Negative entries count as zero allocation, not negative fairness.
	if got := JainFairness([]float64{-1, 2, 2}); got <= 0 || got > 1 {
		t.Fatalf("Jain with negative entry = %v outside (0,1]", got)
	}
	// A lone entity is perfectly fair to itself, whatever it holds.
	for _, x := range []float64{0.001, 1, 42} {
		if got := JainFairness([]float64{x}); !almost(got, 1) {
			t.Errorf("Jain(%v alone) = %v, want 1", x, got)
		}
	}
	if JainFairness([]float64{0}) != 0 {
		t.Error("Jain of a single zero allocation should be degenerate (0)")
	}
}

// Jain's index always lands in [1/n, 1] for any non-degenerate allocation.
func TestJainBounds(t *testing.T) {
	err := quick.Check(func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		j := JainFairness(xs)
		return j >= 1.0/3-1e-9 && j <= 1+1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// Harmonic mean is always <= arithmetic mean of the relative IPCs.
func TestHmeanLEArithmetic(t *testing.T) {
	err := quick.Check(func(a, b, c uint16) bool {
		m := []float64{float64(a%50) + 1, float64(b%50) + 1, float64(c%50) + 1}
		s := []float64{25, 25, 25}
		h := Hmean(m, s)
		arith := (m[0]/s[0] + m[1]/s[1] + m[2]/s[2]) / 3
		return h <= arith+1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
