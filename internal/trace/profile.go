// Package trace generates synthetic instruction streams that stand in for
// the paper's Alpha SPEC2000 traces.
//
// The substitution is documented in EXPERIMENTS.md: every policy the paper
// studies reacts only to dynamic resource-demand signals (queue and register
// occupancy, cache misses, branch mispredictions, dependency-limited ILP),
// so a statistical model that reproduces those signals — with real simulated
// caches and predictors, so miss rates are emergent rather than injected —
// preserves the behaviour the experiments measure.
//
// Each SPEC2000 program is described by a Profile; a Stream turns a Profile
// into a deterministic, replayable micro-op sequence.
package trace

import "fmt"

// Profile is the statistical model of one benchmark.
type Profile struct {
	Name string
	FP   bool // floating-point suite member (Table 3 grouping)
	Mem  bool // MEM thread per the paper's taxonomy (L2 miss rate >= 1%)

	// Instruction mix (fractions of all uops; remainder is integer ALU).
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64
	FPFrac     float64 // FP compute fraction (split 70/30 between FP-ALU and FP-mul)
	IntMulFrac float64

	// FPLoadFrac is the fraction of loads that write FP registers.
	FPLoadFrac float64

	// MeanDep is the mean backwards dependency distance; small values mean
	// serial code (low ILP), large values mean independent work.
	MeanDep float64
	// ChaseProb is the probability a load's address depends on the previous
	// load (pointer chasing); it serialises misses and caps MLP.
	ChaseProb float64

	// Branch behaviour: CallFrac of branches are calls (matched returns are
	// emitted while the synthetic call stack is non-empty); Predictability
	// is the fraction of static branch sites that are strongly biased.
	CallFrac       float64
	Predictability float64

	// Footprints in bytes. Code drives the I-cache; the three data regions
	// drive the D-side hierarchy: Hot fits L1, Warm fits L2, Cold exceeds L2.
	CodeBytes int
	HotBytes  int
	WarmBytes int
	ColdBytes int

	// StrideFrac is the fraction of data accesses that walk sequentially
	// within their region (spatial locality); the rest are uniform random.
	StrideFrac float64

	// Region mixture [hot, warm, cold] per phase. The slow phase is the
	// memory-bound phase; the Markov phase process (SlowFrac, PhaseLen)
	// switches between them.
	FastMix  [3]float64
	SlowMix  [3]float64
	SlowFrac float64 // long-run fraction of instructions in slow phases
	PhaseLen float64 // mean instructions per phase episode

	// PaperL2MissRate is the L2 miss rate (%) reported in the paper's
	// Table 3, kept for the side-by-side reproduction report.
	PaperL2MissRate float64
}

// Validate checks the profile is internally consistent.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("trace: profile without name")
	}
	sum := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FPFrac + p.IntMulFrac
	if sum >= 1 {
		return fmt.Errorf("trace: %s instruction mix sums to %.2f >= 1", p.Name, sum)
	}
	for _, f := range []float64{p.LoadFrac, p.StoreFrac, p.BranchFrac, p.FPFrac,
		p.IntMulFrac, p.FPLoadFrac, p.ChaseProb, p.CallFrac, p.Predictability,
		p.StrideFrac, p.SlowFrac} {
		if f < 0 || f > 1 {
			return fmt.Errorf("trace: %s has fraction outside [0,1]", p.Name)
		}
	}
	if p.MeanDep < 1 {
		return fmt.Errorf("trace: %s mean dependency distance %.1f < 1", p.Name, p.MeanDep)
	}
	if p.CodeBytes <= 0 || p.HotBytes <= 0 || p.WarmBytes <= 0 || p.ColdBytes <= 0 {
		return fmt.Errorf("trace: %s has non-positive footprint", p.Name)
	}
	if p.PhaseLen < 1 {
		return fmt.Errorf("trace: %s phase length %.0f < 1", p.Name, p.PhaseLen)
	}
	return nil
}

// Type returns the paper's thread taxonomy label.
func (p Profile) Type() string {
	if p.Mem {
		return "MEM"
	}
	return "ILP"
}

// intProfile and fpProfile build baseline mixes for the two suites; the
// benchmark table below then perturbs memory behaviour per program.
func intProfile(name string) Profile {
	return Profile{
		Name:       name,
		LoadFrac:   0.26,
		StoreFrac:  0.11,
		BranchFrac: 0.14,
		IntMulFrac: 0.01,
		MeanDep:    6,
		CallFrac:   0.08,

		Predictability: 0.92,
		CodeBytes:      12 << 10,
		HotBytes:       10 << 10,
		WarmBytes:      96 << 10,
		ColdBytes:      48 << 20,
		StrideFrac:     0.45,
		FastMix:        [3]float64{0.985, 0.01498, 0.00002},
		SlowMix:        [3]float64{0.93, 0.06985, 0.00015},
		SlowFrac:       0.20,
		PhaseLen:       4000,
	}
}

func fpProfile(name string) Profile {
	p := intProfile(name)
	p.FP = true
	p.BranchFrac = 0.07
	p.FPFrac = 0.30
	p.FPLoadFrac = 0.60
	p.MeanDep = 9
	p.Predictability = 0.97
	p.StrideFrac = 0.70
	return p
}

// Benchmarks returns the full synthetic SPEC2000 suite keyed by name. The
// memory parameters are calibrated so single-thread simulation on the
// baseline configuration lands each program on the correct side of the
// paper's MEM/ILP split and in roughly the right L2 miss-rate order
// (Table 3); EXPERIMENTS.md records measured-vs-paper values.
func Benchmarks() map[string]Profile {
	m := make(map[string]Profile)
	add := func(p Profile) {
		if _, dup := m[p.Name]; dup {
			panic("trace: duplicate benchmark " + p.Name)
		}
		if err := p.Validate(); err != nil {
			panic(err)
		}
		m[p.Name] = p
	}

	// ---- MEM integer ----
	mcf := intProfile("mcf")
	mcf.Mem = true
	mcf.CodeBytes = 20 << 10
	mcf.HotBytes = 16 << 10
	mcf.WarmBytes = 224 << 10
	mcf.PaperL2MissRate = 29.6
	mcf.MeanDep = 3.2
	mcf.ChaseProb = 0.55
	mcf.Predictability = 0.96
	mcf.StrideFrac = 0.05
	mcf.ColdBytes = 160 << 20
	mcf.FastMix = [3]float64{0.76, 0.21, 0.03}
	mcf.SlowMix = [3]float64{0.62, 0.28, 0.10}
	mcf.SlowFrac = 0.88
	mcf.LoadFrac = 0.31
	add(mcf)

	twolf := intProfile("twolf")
	twolf.Mem = true
	twolf.CodeBytes = 20 << 10
	twolf.HotBytes = 16 << 10
	twolf.WarmBytes = 224 << 10
	twolf.PaperL2MissRate = 2.9
	twolf.MeanDep = 4.5
	twolf.ChaseProb = 0.15
	twolf.StrideFrac = 0.25
	twolf.FastMix = [3]float64{0.92, 0.079, 0.001}
	twolf.SlowMix = [3]float64{0.84, 0.155, 0.005}
	twolf.SlowFrac = 0.60
	add(twolf)

	vpr := intProfile("vpr")
	vpr.Mem = true
	vpr.CodeBytes = 20 << 10
	vpr.HotBytes = 16 << 10
	vpr.WarmBytes = 224 << 10
	vpr.PaperL2MissRate = 1.9
	vpr.MeanDep = 4.8
	vpr.ChaseProb = 0.12
	vpr.StrideFrac = 0.30
	vpr.FastMix = [3]float64{0.93, 0.0695, 0.0005}
	vpr.SlowMix = [3]float64{0.85, 0.147, 0.003}
	vpr.SlowFrac = 0.55
	add(vpr)

	parser := intProfile("parser")
	parser.Mem = true
	parser.CodeBytes = 20 << 10
	parser.HotBytes = 16 << 10
	parser.WarmBytes = 224 << 10
	parser.PaperL2MissRate = 1.0
	parser.MeanDep = 5.0
	parser.ChaseProb = 0.20
	parser.FastMix = [3]float64{0.94, 0.0596, 0.0004}
	parser.SlowMix = [3]float64{0.87, 0.128, 0.002}
	parser.SlowFrac = 0.45
	add(parser)

	// ---- MEM floating point ----
	art := fpProfile("art")
	art.Mem = true
	art.CodeBytes = 20 << 10
	art.HotBytes = 16 << 10
	art.WarmBytes = 224 << 10
	art.PaperL2MissRate = 18.6
	art.MeanDep = 4.0
	art.ChaseProb = 0.25
	art.StrideFrac = 0.35
	art.ColdBytes = 96 << 20
	art.FastMix = [3]float64{0.82, 0.165, 0.015}
	art.SlowMix = [3]float64{0.66, 0.285, 0.055}
	art.SlowFrac = 0.85
	add(art)

	swim := fpProfile("swim")
	swim.Mem = true
	swim.CodeBytes = 20 << 10
	swim.HotBytes = 16 << 10
	swim.WarmBytes = 224 << 10
	swim.PaperL2MissRate = 11.4
	swim.MeanDep = 11
	swim.ChaseProb = 0.02
	swim.StrideFrac = 0.85 // streaming
	swim.ColdBytes = 128 << 20
	swim.FastMix = [3]float64{0.85, 0.144, 0.006}
	swim.SlowMix = [3]float64{0.70, 0.27, 0.03}
	swim.SlowFrac = 0.80
	add(swim)

	lucas := fpProfile("lucas")
	lucas.Mem = true
	lucas.CodeBytes = 20 << 10
	lucas.HotBytes = 16 << 10
	lucas.WarmBytes = 224 << 10
	lucas.PaperL2MissRate = 7.47
	lucas.MeanDep = 9
	lucas.ChaseProb = 0.05
	lucas.StrideFrac = 0.75
	lucas.FastMix = [3]float64{0.88, 0.118, 0.002}
	lucas.SlowMix = [3]float64{0.74, 0.24, 0.02}
	lucas.SlowFrac = 0.70
	add(lucas)

	equake := fpProfile("equake")
	equake.Mem = true
	equake.CodeBytes = 20 << 10
	equake.HotBytes = 16 << 10
	equake.WarmBytes = 224 << 10
	equake.PaperL2MissRate = 4.72
	equake.MeanDep = 7
	equake.ChaseProb = 0.18
	equake.StrideFrac = 0.50
	equake.FastMix = [3]float64{0.90, 0.099, 0.001}
	equake.SlowMix = [3]float64{0.80, 0.191, 0.009}
	equake.SlowFrac = 0.65
	add(equake)

	// ---- ILP integer ----
	gap := intProfile("gap")
	gap.PaperL2MissRate = 0.7
	gap.SlowMix = [3]float64{0.92, 0.0796, 0.0004}
	gap.SlowFrac = 0.30
	add(gap)

	vortex := intProfile("vortex")
	vortex.PaperL2MissRate = 0.3
	vortex.CodeBytes = 64 << 10 // large code footprint: some I-cache misses
	vortex.SlowMix = [3]float64{0.93, 0.06985, 0.00015}
	vortex.SlowFrac = 0.22
	add(vortex)

	gcc := intProfile("gcc")
	gcc.PaperL2MissRate = 0.3
	gcc.CodeBytes = 96 << 10
	gcc.Predictability = 0.88
	gcc.SlowMix = [3]float64{0.93, 0.0698, 0.0002}
	gcc.SlowFrac = 0.22
	add(gcc)

	perl := intProfile("perl")
	perl.PaperL2MissRate = 0.1
	perl.CodeBytes = 48 << 10
	perl.SlowFrac = 0.15
	add(perl)

	bzip2 := intProfile("bzip2")
	bzip2.PaperL2MissRate = 0.1
	bzip2.MeanDep = 7
	bzip2.SlowFrac = 0.15
	add(bzip2)

	crafty := intProfile("crafty")
	crafty.PaperL2MissRate = 0.1
	crafty.Predictability = 0.87
	crafty.MeanDep = 7
	crafty.SlowFrac = 0.12
	add(crafty)

	gzip := intProfile("gzip")
	gzip.PaperL2MissRate = 0.1
	gzip.MeanDep = 8
	gzip.SlowFrac = 0.12
	add(gzip)

	eon := intProfile("eon")
	eon.PaperL2MissRate = 0.0
	eon.MeanDep = 8
	eon.Predictability = 0.96
	eon.FastMix = [3]float64{0.985, 0.014995, 0.000005}
	eon.SlowMix = [3]float64{0.93, 0.06995, 0.00005}
	eon.SlowFrac = 0.08
	add(eon)

	// ---- ILP floating point ----
	apsi := fpProfile("apsi")
	apsi.PaperL2MissRate = 0.9
	apsi.SlowMix = [3]float64{0.91, 0.0895, 0.0005}
	apsi.SlowFrac = 0.30
	add(apsi)

	wupwise := fpProfile("wupwise")
	wupwise.PaperL2MissRate = 0.9
	wupwise.SlowMix = [3]float64{0.91, 0.0895, 0.0005}
	wupwise.SlowFrac = 0.28
	add(wupwise)

	mesa := fpProfile("mesa")
	mesa.PaperL2MissRate = 0.1
	mesa.FPFrac = 0.22
	mesa.SlowFrac = 0.12
	add(mesa)

	fma3d := fpProfile("fma3d")
	fma3d.PaperL2MissRate = 0.0
	fma3d.FastMix = [3]float64{0.985, 0.014995, 0.000005}
	fma3d.SlowMix = [3]float64{0.93, 0.06995, 0.00005}
	fma3d.SlowFrac = 0.08
	add(fma3d)

	return m
}

// MustProfile returns the named benchmark profile or panics; experiment code
// uses it for the fixed workload tables.
func MustProfile(name string) Profile {
	p, ok := Benchmarks()[name]
	if !ok {
		panic("trace: unknown benchmark " + name)
	}
	return p
}

// ProfileByName returns the named benchmark profile, with an error rather
// than a panic for names arriving from external inputs (campaign cells read
// from a store or a lease).
func ProfileByName(name string) (Profile, error) {
	p, ok := Benchmarks()[name]
	if !ok {
		return Profile{}, fmt.Errorf("trace: unknown benchmark %q", name)
	}
	return p, nil
}

// Names returns all benchmark names in a deterministic order: MEM first in
// descending paper miss rate, then ILP, matching Table 3's presentation.
func Names() []string {
	return []string{
		"mcf", "twolf", "vpr", "parser", // MEM int
		"art", "swim", "lucas", "equake", // MEM fp
		"gap", "vortex", "gcc", "perl", "bzip2", "crafty", "gzip", "eon", // ILP int
		"apsi", "wupwise", "mesa", "fma3d", // ILP fp
	}
}
