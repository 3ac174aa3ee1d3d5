package rng_test

import (
	"slices"
	"testing"

	"dcra/internal/rng"
	"dcra/internal/trace"
)

// profileMeans returns every distinct MeanDep and PhaseLen of the benchmark
// profiles: the means the trace generator builds a GeomDist for.
func profileMeans() []float64 {
	var means []float64
	for _, p := range trace.Benchmarks() {
		means = append(means, p.MeanDep, p.PhaseLen)
	}
	slices.Sort(means)
	return slices.Compact(means)
}

// TestGeomDistMatchesCDFWalk checks GeomDist's integer-threshold search
// against the float CDF walk it replaces, geomFromUniform, for every mean the
// profiles use: on both sides of every threshold (the 53-bit draws
// k = thr[i]-1 and k = thr[i], where the answer steps), at the ends of the
// draw range, and on random draws through Sample against Geometric.
func TestGeomDistMatchesCDFWalk(t *testing.T) {
	for _, m := range profileMeans() {
		g := rng.NewGeomDist(m)
		if m <= 1 {
			s := rng.New(1)
			if got := g.Sample(s); got != 1 {
				t.Fatalf("mean %v: Sample = %d, want 1", m, got)
			}
			if s.Uint64() != rng.New(1).Uint64() {
				t.Fatalf("mean %v: Sample consumed a draw", m)
			}
			continue
		}
		check := func(k uint64) {
			if k >= 1<<53 {
				return
			}
			want := rng.GeomFromUniform(float64(k)/(1<<53), 1/m)
			if got := g.At(k); got != want {
				t.Fatalf("mean %v, k = %#x: threshold search gives %d, CDF walk %d", m, k, got, want)
			}
		}
		check(0)
		check(1<<53 - 1)
		thr := g.Thresholds()
		for i, k := range thr {
			if i > 0 && k == thr[i-1] {
				continue // the CDF's rounded plateau: same draws as before
			}
			check(k - 1)
			check(k)
		}

		a, b := rng.New(uint64(m*1000)), rng.New(uint64(m*1000))
		for i := 0; i < 20_000; i++ {
			if got, want := g.Sample(a), b.Geometric(m); got != want {
				t.Fatalf("mean %v, draw %d: Sample = %d, Geometric = %d", m, i, got, want)
			}
		}
	}
}
