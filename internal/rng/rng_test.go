package rng

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

// TestUint64KnownAnswers pins the generator's output. The values were
// recorded from the step-by-step xoshiro256** implementation that the
// inlinable Uint64 replaced, so any edit that changes one bit of any stream
// fails here.
func TestUint64KnownAnswers(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		want []uint64
	}{
		{0, []uint64{
			0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c,
			0xbba5ad4a1f842e59, 0xffef8375d9ebcaca, 0x6c160deed2f54c98, 0x8920ad648fc30a3f,
		}},
		{0x5eeddc2a, []uint64{
			0xcab474a44fb3672c, 0x51ac22deb9038f36, 0xa90024157d958fd9, 0x9a8daccdc27bdbc8,
			0x2760969c71a4b7f4, 0x1df3c6e21aa7c31d, 0x27422f77d570290c, 0x970b1771c1c5ced1,
		}},
	} {
		s := New(c.seed)
		for i, want := range c.want {
			if got := s.Uint64(); got != want {
				t.Fatalf("seed %#x, draw %d: %#016x, want %#016x", c.seed, i, got, want)
			}
		}
	}
	s := New(0x5eeddc2a)
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	if a, b := s.Uint64(), s.Uint64(); a != 0x339c11ee023f1e86 || b != 0x6406ed7f715d8e8d {
		t.Fatalf("draws 1000 and 1001: %#016x %#016x", a, b)
	}
	s = New(42)
	if f, n, b := s.Float64(), s.Intn(1000), s.Bool(0.3); f != 0.08386297105988216 || n != 378 || b {
		t.Fatalf("Float64, Intn(1000), Bool(0.3) at seed 42: %v %d %v, want 0.08386297105988216 378 false", f, n, b)
	}
}

func TestDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestReseed(t *testing.T) {
	s := New(7)
	first := s.Uint64()
	s.Uint64()
	s.Reseed(7)
	if got := s.Uint64(); got != first {
		t.Fatalf("reseed did not restore stream: %d != %d", got, first)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	if a, b := s.Uint64(), s.Uint64(); a == 0 && b == 0 {
		t.Fatal("zero seed produced a stuck zero stream")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(42)
	err := quick.Check(func(n uint16) bool {
		bound := int(n%1000) + 1
		v := s.Intn(bound)
		return v >= 0 && v < bound
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(9)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d: %d draws, want about %d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		if f := s.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(4)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(5)
	hits := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if got < 0.28 || got > 0.32 {
		t.Fatalf("Bool(0.3) hit rate %.3f", got)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(6)
	for _, mean := range []float64{1, 2, 5, 20} {
		var sum float64
		const draws = 50000
		for i := 0; i < draws; i++ {
			v := s.Geometric(mean)
			if v < 1 {
				t.Fatalf("Geometric(%v) returned %d < 1", mean, v)
			}
			sum += float64(v)
		}
		got := sum / draws
		if mean == 1 {
			if got != 1 {
				t.Fatalf("Geometric(1) mean %v, want exactly 1", got)
			}
			continue
		}
		if got < mean*0.93 || got > mean*1.07 {
			t.Errorf("Geometric(%v) sample mean %.3f", mean, got)
		}
	}
}

func TestPickWeights(t *testing.T) {
	s := New(8)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const draws = 40000
	for i := 0; i < draws; i++ {
		counts[s.Pick(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("picked zero-weight bucket %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio %.2f, want about 3", ratio)
	}
}

func TestPickDegenerate(t *testing.T) {
	s := New(8)
	if got := s.Pick([]float64{0, 0}); got != 0 {
		t.Fatalf("all-zero weights: got %d, want 0", got)
	}
	if got := s.Pick([]float64{-1, -2}); got != 0 {
		t.Fatalf("negative weights: got %d, want 0", got)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(11)
	child := parent.Split()
	// Draw from the child; the parent's subsequent stream must be the same
	// as if the child were never consumed.
	parentCopy := New(11)
	parentCopy.Split()
	for i := 0; i < 100; i++ {
		child.Uint64()
	}
	for i := 0; i < 100; i++ {
		if parent.Uint64() != parentCopy.Uint64() {
			t.Fatal("consuming a split child perturbed the parent stream")
		}
	}
}
