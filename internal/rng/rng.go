// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by the synthetic workload generator and the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: two runs
// with the same seed must produce bit-identical instruction streams and
// therefore identical simulation results. math/rand would work, but its
// global state and historical Seed semantics make accidental coupling easy;
// a tiny local SplitMix64/xoshiro combination keeps every stream independent
// and explicit.
package rng

import (
	"math"
	"math/bits"
	"sync"
)

// Source is a deterministic 64-bit PRNG (xoshiro256** seeded via SplitMix64).
// The zero value is not usable; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed. Distinct seeds yield independent
// streams for all practical purposes.
func New(seed uint64) *Source {
	var s Source
	s.Reseed(seed)
	return &s
}

// Reseed resets the generator to the state derived from seed.
func (s *Source) Reseed(seed uint64) {
	// SplitMix64 to spread the seed across the full state, avoiding the
	// all-zero state xoshiro cannot escape.
	x := seed
	for i := range s.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s.s[i] = z ^ (z >> 31)
	}
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 random bits. The xoshiro256** step is written
// as one state assignment over locals: that form stays within the
// compiler's inlining budget (as does Float64), so a draw is not a call.
// TestUint64KnownAnswers pins the outputs.
func (s *Source) Uint64() uint64 {
	s0, s1 := s.s[0], s.s[1]
	s2, s3 := s.s[2]^s0, s.s[3]^s1
	s.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	bound := uint64(n)
	for {
		hi, lo := bits.Mul64(s.Uint64(), bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Geometric returns a sample from a geometric distribution with mean m
// (support {1, 2, ...}). Used for dependency distances: mean m implies
// success probability 1/m per trial. For m <= 1 it always returns 1.
func (s *Source) Geometric(m float64) int {
	if m <= 1 {
		return 1
	}
	p := 1 / m
	// Inverse-CDF sampling keeps this O(1) regardless of the mean.
	u := s.Float64()
	// ceil(log(1-u)/log(1-p)) without importing math: iterate only for the
	// tiny fraction of cases where the fast path overflows is not worth it;
	// use the math-free iterative fallback only for pathological u.
	return geomFromUniform(u, p)
}

// geomFromUniform converts a uniform sample into a geometric sample.
func geomFromUniform(u, p float64) int {
	// Iterative CDF walk, capped to keep worst case bounded. The cap at 4096
	// only truncates an O(e^-40) tail for realistic means (<= 100).
	q := 1 - p
	cdf := p
	tail := p
	for k := 1; k < 4096; k++ {
		if u < cdf {
			return k
		}
		tail *= q
		cdf += tail
	}
	return 4096
}

// GeomDist is a precomputed sampler for the geometric distribution with a
// fixed mean. It draws samples bit-identical to Source.Geometric for the
// same uniform input, but replaces the per-call CDF walk (O(mean) float
// operations, a steady ~5-7% of simulation time for the dependency-distance
// model) with a guided scan over integer thresholds built once per distinct
// mean. Tables are immutable after construction and safe to share across
// goroutines.
type GeomDist struct {
	// thr[n-1] = ceil(P(X <= n)·2^53), with P(X <= n) accumulated exactly
	// like geomFromUniform. Float64 returns u = k/2^53 for the 53-bit draw
	// k, and u·2^53 is exact, so u < P(X <= n) holds exactly when
	// k < thr[n-1]: Sample compares the draw itself and never converts it
	// to a float.
	thr []uint64

	// guide[j] is the smallest index i with thr[i] > j·2^45 (a CDF value
	// above j/guideBuckets): a draw k starts its linear scan at
	// guide[k>>45], which lands within a couple of entries of the answer
	// for any mean. The table only accelerates the search — results are
	// identical to a full scan.
	guide [guideBuckets]int32
}

// guideBuckets is the resolution of the GeomDist guide table; guideShift
// maps a 53-bit draw to its bucket.
const (
	guideBuckets = 256
	guideShift   = 53 - 8
)

// geomDistCache shares tables between streams; the experiment suite uses
// only a handful of distinct means (one MeanDep and one PhaseLen per
// benchmark profile).
var geomDistCache sync.Map // float64 -> *GeomDist

// NewGeomDist returns the (cached) sampler for mean m.
func NewGeomDist(m float64) *GeomDist {
	if g, ok := geomDistCache.Load(m); ok {
		return g.(*GeomDist)
	}
	g := &GeomDist{}
	if m > 1 {
		p := 1 / m
		q := 1 - p
		thr := make([]uint64, 4095)
		tail := p
		c := p
		thr[0] = uint64(math.Ceil(c * (1 << 53)))
		for k := 2; k < 4096; k++ {
			tail *= q
			c += tail
			thr[k-1] = uint64(math.Ceil(c * (1 << 53)))
		}
		g.thr = thr
		i := int32(0)
		for j := range g.guide {
			for int(i) < len(thr) && thr[i] <= uint64(j)<<guideShift {
				i++
			}
			g.guide[j] = i
		}
	}
	actual, _ := geomDistCache.LoadOrStore(m, g)
	return actual.(*GeomDist)
}

// Skip advances s exactly as Sample would — one uniform draw when the
// distribution is non-trivial, none otherwise — without the threshold
// search. Bulk stream skims use it when they need the generator state moved
// but not the sampled value: draw sequences stay bit-identical to Sample at
// a fraction of the cost.
func (g *GeomDist) Skip(s *Source) {
	if g.thr != nil {
		s.Uint64()
	}
}

// Sample draws from the distribution using randomness from s. It consumes
// exactly one draw, the one Source.Geometric's Float64 consumes, and
// returns the same sample for it.
func (g *GeomDist) Sample(s *Source) int {
	if g.thr == nil {
		return 1
	}
	return g.at(s.Uint64() >> 11)
}

// at returns the sample for the 53-bit uniform draw k: the smallest n
// (1-based) with k < thr[n-1], or 4096 past the table. The walk in
// geomFromUniform checks the same predicate in ascending order, so the
// results agree.
func (g *GeomDist) at(k uint64) int {
	thr := g.thr
	i := int(g.guide[k>>guideShift])
	for i < len(thr) && thr[i] <= k {
		i++
	}
	return i + 1
}

// Pick returns an index in [0, len(weights)) with probability proportional
// to weights[i]. Zero or negative total weight returns 0.
func (s *Source) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// Split derives a new independent Source from this one. Useful to hand each
// thread or each model component its own stream so that consuming randomness
// in one never perturbs another.
func (s *Source) Split() *Source {
	dst := new(Source)
	s.SplitInto(dst)
	return dst
}

// SplitInto reseeds dst exactly as Split would seed a fresh Source, without
// allocating. Reset paths use it to rebind an existing generator to a new
// stream bit-identically to construction.
func (s *Source) SplitInto(dst *Source) {
	dst.Reseed(s.Uint64() ^ 0xa0761d6478bd642f)
}
