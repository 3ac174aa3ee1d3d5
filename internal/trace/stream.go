package trace

import (
	"fmt"

	"dcra/internal/isa"
	"dcra/internal/rng"
)

// Stream produces the canonical micro-op sequence of one thread and retains
// every uop between the commit point and the generation frontier, so squash
// events (branch mispredictions, FLUSH) can deterministically re-fetch the
// same path.
//
// The front end addresses uops by absolute index:
//
//	u := s.At(i)     // i may be at most the generation frontier
//	s.Release(i)     // uops below i have committed and may be dropped
type Stream struct {
	// Identity: the generator state at canonical index i is a pure
	// function of (prof, slot, seed, i), which is what lets streams share
	// checkpoints (see Checkpoints).
	prof Profile
	slot int
	seed uint64

	rg  *rng.Source // canonical-path randomness
	wrg *rng.Source // wrong-path randomness (separate so squashes cannot
	// perturb the canonical stream)

	buf  []isa.Uop // retained window, buf[0] has index base
	base uint64
	next uint64 // == base + len(buf): next index to synthesise

	// Generator machine state (advances only at the frontier).
	pc        uint64
	callStack []uint64
	sinceLoad int  // distance to the previous load, for pointer chasing
	slow      bool // current phase
	phaseLeft int

	// Address-space layout: regions are disjoint per thread.
	codeBase uint64
	regBase  [3]uint64 // hot, warm, cold bases
	regSize  [3]uint64
	lastAddr [3]uint64 // stride cursors

	// seed for per-site branch bias hashing, fixed per stream.
	siteSeed uint64

	// skim, set for the duration of a SkipUops call, elides the
	// dependency-distance CDF searches (the draws still happen; see
	// depDistance). Never set on any path that observes uop content.
	skim bool

	// Precomputed geometric samplers for the profile's fixed means (shared
	// across streams; see rng.NewGeomDist).
	depDist   *rng.GeomDist
	phaseDist *rng.GeomDist

	// classTab memoises classAt per static instruction (0xff = unfilled):
	// the class is a pure function of (pc, siteSeed), and both the
	// generator and the fast-forward walk consult it for every uop.
	classTab []uint8

	// mixTotal caches rng.Pick's positive-weight sums for the two
	// working-set mixtures ([0] fast, [1] slow), so the per-access address
	// draw skips the accumulation pass. Summation order matches Pick's, so
	// draws stay bit-identical.
	mixTotal [2]float64

	// ck links the stream to the checkpoint store its owner attached, if
	// any; only SkipUops consults it.
	ck ckptHandle
}

// Region indices within the working-set mixture.
const (
	regionHot = iota
	regionWarm
	regionCold
)

// maxCallDepth bounds the synthetic call stack; beyond it calls degrade to
// plain branches (deep recursion would otherwise grow memory unboundedly).
const maxCallDepth = 64

// NewStream builds the canonical stream for profile p on hardware context
// threadID, seeded deterministically from seed.
func NewStream(p Profile, threadID int, seed uint64) *Stream {
	s := &Stream{rg: new(rng.Source), wrg: new(rng.Source)}
	s.init(p, threadID, seed)
	return s
}

// Rebind resets the stream to the exact post-NewStream(p, threadID, seed)
// state, reusing the retained-window and call-stack backing arrays. A rebound
// stream produces a bit-identical uop sequence to a freshly constructed one;
// the machine-reuse lifecycle depends on this.
func (s *Stream) Rebind(p Profile, threadID int, seed uint64) {
	s.init(p, threadID, seed)
}

// init sets every field from (p, threadID, seed). The RNG derivation order —
// rg, wrg, siteSeed, then the initial phase draw — is shared with the
// original constructor and must not change: it defines the canonical streams
// of every recorded experiment.
func (s *Stream) init(p Profile, threadID int, seed uint64) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	var base rng.Source
	base.Reseed(seed ^ (uint64(threadID)+1)*0x9e3779b97f4a7c15)
	s.prof, s.slot, s.seed = p, threadID, seed
	s.ck.line = nil
	base.SplitInto(s.rg)
	base.SplitInto(s.wrg)
	s.siteSeed = base.Uint64()
	s.buf = s.buf[:0]
	s.base, s.next = 0, 0
	if s.callStack == nil {
		// Never nil, so an emptied stack and a fresh one compare equal.
		s.callStack = make([]uint64, 0, maxCallDepth)
	}
	s.callStack = s.callStack[:0]
	s.sinceLoad = 0
	// Stagger the layout per thread by odd line counts: power-of-two bases
	// would make every thread's regions congruent modulo the cache-set
	// space, so all threads would fight over the same sets (the real world
	// equivalent is the OS's random page colouring).
	stagger := uint64(threadID) * 73 * 64
	s.codeBase = (uint64(threadID)+1)<<40 + stagger
	s.pc = s.codeBase
	s.regBase[regionHot] = s.codeBase + (1 << 28) + 31*64
	s.regBase[regionWarm] = s.codeBase + (2 << 28) + 97*64
	s.regBase[regionCold] = s.codeBase + (8 << 28) + 41*64
	s.regSize[regionHot] = uint64(p.HotBytes)
	s.regSize[regionWarm] = uint64(p.WarmBytes)
	s.regSize[regionCold] = uint64(p.ColdBytes)
	for r := range s.lastAddr {
		s.lastAddr[r] = s.regBase[r]
	}
	s.phaseLeft = 1 // choose a phase on the first uop
	s.slow = base.Bool(p.SlowFrac)
	s.depDist = rng.NewGeomDist(p.MeanDep)
	s.phaseDist = rng.NewGeomDist(p.PhaseLen)
	if n := p.CodeBytes / 4; cap(s.classTab) >= n {
		s.classTab = s.classTab[:n]
	} else {
		s.classTab = make([]uint8, n)
	}
	for i := range s.classTab {
		s.classTab[i] = 0xff
	}
	s.mixTotal[0] = pickTotal(p.FastMix[:])
	s.mixTotal[1] = pickTotal(p.SlowMix[:])
}

// pickTotal accumulates the positive weights exactly like rng.Pick.
func pickTotal(weights []float64) float64 {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	return total
}

// Footprint describes the stream's address-space regions, used by the
// simulator to pre-warm caches (see cache.Hierarchy.PrewarmData).
type Footprint struct {
	CodeBase  uint64
	CodeBytes int
	HotBase   uint64
	HotBytes  int
	WarmBase  uint64
	WarmBytes int
}

// Footprint returns the stream's resident regions (cold is excluded by
// design: it must miss).
func (s *Stream) Footprint() Footprint {
	return Footprint{
		CodeBase:  s.codeBase,
		CodeBytes: s.prof.CodeBytes,
		HotBase:   s.regBase[regionHot],
		HotBytes:  s.prof.HotBytes,
		WarmBase:  s.regBase[regionWarm],
		WarmBytes: s.prof.WarmBytes,
	}
}

// Frontier returns the lowest index not yet synthesised.
func (s *Stream) Frontier() uint64 { return s.next }

// At returns the uop at absolute index idx. idx must be in
// [released base, Frontier()]; requesting the frontier synthesises one uop.
func (s *Stream) At(idx uint64) *isa.Uop {
	if idx < s.base {
		panic(fmt.Sprintf("trace: uop %d already released (base %d)", idx, s.base))
	}
	for idx >= s.next {
		s.generate()
	}
	return &s.buf[idx-s.base]
}

// Release drops all uops with index < idx; they have committed and can no
// longer be re-fetched. Compaction is amortised.
func (s *Stream) Release(idx uint64) {
	if idx <= s.base {
		return
	}
	if idx > s.next {
		panic(fmt.Sprintf("trace: release beyond frontier (%d > %d)", idx, s.next))
	}
	k := idx - s.base
	// Compact lazily: only when a sizeable prefix is dead, so each uop is
	// copied O(1) times amortised.
	if k >= 1024 || int(k) == len(s.buf) {
		n := copy(s.buf, s.buf[k:])
		s.buf = s.buf[:n]
		s.base = idx
	}
}

// SkipUop synthesises the uop at the frontier into u and advances past it
// without retaining it. It performs exactly the draws generate does — phase
// process, PC walk, addresses, branch directions, operand dependences — so
// the canonical stream is preserved bit-for-bit: uop N has identical content
// whether it was fast-forwarded or detail-executed, and the uops a
// measurement window fetches after a gap match what an uninterrupted run
// would have fetched. (A cheaper variant that skipped the dependence draws
// the pipeline never reads during warming was measured to bias sampled IPC
// low by ~1-2% across the Figure 5 sweep — window content decorrelates from
// the exact run's — so fast-forward pays for the full draw sequence and
// saves only the retention: no buffer append, no compaction, no At/Release
// bookkeeping.)
//
// Skipped indices are consumed — they can never be re-fetched, so SkipUop
// requires every earlier uop to have been released.
func (s *Stream) SkipUop(u *isa.Uop) {
	if s.base != s.next {
		panic(fmt.Sprintf("trace: SkipUop with retained uops [%d,%d)", s.base, s.next))
	}
	s.skipOne(u)
}

// SkipUops discards n consecutive frontier uops — the exact draw sequence
// of n SkipUop calls with the per-call validation hoisted out of the loop.
// u is scratch space; unlike SkipUop it is NOT a faithful synthesis: the
// dependency-distance fields are left zero (their geometric draws advance
// the RNG identically but skip the CDF search — see rng.GeomDist.Skip),
// because no caller observes them, and with a checkpoint store attached it
// may not be written at all. Callers that need complete uops (functional
// warming) use SkipUop per uop instead. This is the bulk-advance primitive
// behind warm-tail fast-forward, where the gap body only needs the stream
// cursor and RNG state moved, not the uops themselves.
//
// With a checkpoint store attached (UseCheckpoints), the skim first
// restores the latest stored checkpoint of this stream identity in
// (frontier, frontier+n], then skims the rest, recording a checkpoint at
// every multiple of ckptStride it passes. The end state is bit-identical
// either way.
func (s *Stream) SkipUops(n uint64, u *isa.Uop) {
	if n == 0 {
		return
	}
	if s.base != s.next {
		panic(fmt.Sprintf("trace: SkipUops with retained uops [%d,%d)", s.base, s.next))
	}
	s.skim = true
	defer func() { s.skim = false }()
	end := s.next + n
	line := s.ckptLine()
	if line != nil {
		line.restore(s, end)
	}
	for s.next < end {
		stop := end
		if line != nil {
			stop = min(end, (s.next/ckptStride+1)*ckptStride)
		}
		for s.next < stop {
			s.skipOne(u)
		}
		if line != nil && stop%ckptStride == 0 {
			line.record(s)
		}
	}
}

// SkipUopWarm is SkipUop for functional warming: the uop's control and
// memory content (PC, class, effective address, branch direction and
// target) is synthesised faithfully, but the dependency-distance CDF
// searches are elided like SkipUops' (the draws still advance the RNG
// identically). Warming feeds caches, TLBs and predictors — it never reads
// operand dependencies, which only exist for the detailed pipeline.
func (s *Stream) SkipUopWarm(u *isa.Uop) {
	if s.base != s.next {
		panic(fmt.Sprintf("trace: SkipUopWarm with retained uops [%d,%d)", s.base, s.next))
	}
	s.skim = true
	s.skipOne(u)
	s.skim = false
}

// skipOne synthesises the frontier uop into u and consumes it. The caller
// has checked that no retained uops remain.
func (s *Stream) skipOne(u *isa.Uop) {
	s.synth(u)
	s.base++
}

// classAt returns the op class of the static instruction at pc. The
// synthetic program is *static code with dynamic data*: the class (and the
// per-site branch bias, target, chase behaviour, FP-ness of a load) is a
// pure function of the PC, while operand distances, addresses and branch
// directions are drawn per dynamic instance. Static classes are what make
// loops re-execute the same instructions, which in turn is what lets the
// I-cache, BTB and gshare behave as they do on real programs.
func (s *Stream) classAt(pc uint64) isa.OpClass {
	slot := -1
	if i := (pc - s.codeBase) >> 2; i < uint64(len(s.classTab)) {
		if c := s.classTab[i]; c != 0xff {
			return isa.OpClass(c)
		}
		slot = int(i)
	}
	c := s.classAtSlow(pc)
	if slot >= 0 {
		s.classTab[slot] = uint8(c)
	}
	return c
}

// classAtSlow computes the class from the site hash (see classAt).
func (s *Stream) classAtSlow(pc uint64) isa.OpClass {
	p := &s.prof
	h := mix64(pc ^ s.siteSeed ^ 0x51a71c)
	x := float64(h&0xfffff) / float64(1<<20)
	switch {
	case x < p.LoadFrac:
		return isa.OpLoad
	case x < p.LoadFrac+p.StoreFrac:
		return isa.OpStore
	case x < p.LoadFrac+p.StoreFrac+p.BranchFrac:
		// Block heads (32-byte aligned PCs, where all jump targets land)
		// are never branches: without this rule, chains of strongly-taken
		// branches form attractor cycles that capture the PC walk and
		// inflate the dynamic branch fraction ~3x over the static mix.
		if pc&31 == 0 {
			return isa.OpIntALU
		}
		return isa.OpBranch
	case x < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FPFrac:
		if h&(1<<21) != 0 && h&(1<<22) != 0 {
			return isa.OpFPMul // ~25% of FP compute
		}
		return isa.OpFPALU
	case x < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FPFrac+p.IntMulFrac:
		return isa.OpIntMul
	default:
		return isa.OpIntALU
	}
}

// generate synthesises the next canonical uop at the frontier into the
// retained window.
func (s *Stream) generate() {
	s.buf = append(s.buf, isa.Uop{})
	s.synth(&s.buf[len(s.buf)-1])
}

// synth draws the frontier uop into u and advances the generator past it:
// phase process, operand draws, PC walk. generate and skipOne differ only
// in where u lives, so the canonical stream is the same either way.
func (s *Stream) synth(u *isa.Uop) {
	p := &s.prof

	// Phase process.
	s.phaseLeft--
	if s.phaseLeft <= 0 {
		s.slow = s.rg.Bool(p.SlowFrac)
		s.phaseLeft = s.phaseDist.Sample(s.rg)
	}

	*u = isa.Uop{Index: s.next, PC: s.pc}

	switch s.classAt(s.pc) {
	case isa.OpLoad:
		s.genLoad(u)
	case isa.OpStore:
		s.genStore(u)
	case isa.OpBranch:
		s.genBranch(u)
	case isa.OpFPALU:
		u.Class = isa.OpFPALU
		s.genDeps(u)
	case isa.OpFPMul:
		u.Class = isa.OpFPMul
		s.genDeps(u)
	case isa.OpIntMul:
		u.Class = isa.OpIntMul
		s.genDeps(u)
	default:
		u.Class = isa.OpIntALU
		s.genDeps(u)
	}

	// Advance PC: branches may jump, everything else falls through. Keep
	// the PC inside the code footprint so the I-cache sees the intended
	// working set.
	if u.Class == isa.OpBranch && u.Taken {
		s.pc = u.Target
	} else {
		s.pc += 4
		if s.pc >= s.codeBase+uint64(p.CodeBytes) {
			s.pc = s.codeBase
		}
	}

	if u.Class == isa.OpLoad {
		s.sinceLoad = 0
	} else if s.sinceLoad < 1<<14 {
		s.sinceLoad++
	}

	s.next++
}

// genDeps assigns register dependences from the geometric distance model.
func (s *Stream) genDeps(u *isa.Uop) {
	u.Dep1 = s.depDistance()
	if s.rg.Bool(0.6) { // most ops are two-operand
		u.Dep2 = s.depDistance()
	}
	u.FPDest = isa.DestClass(u.Class) == isa.RegFP
}

func (s *Stream) depDistance() uint16 {
	if s.skim {
		// Bulk skim (SkipUops): consume the draw so the stream stays
		// bit-identical, but skip the CDF search — nothing reads the value.
		s.depDist.Skip(s.rg)
		return 0
	}
	d := s.depDist.Sample(s.rg)
	if d > int(s.next) { // cannot reach before the start of the program
		d = int(s.next)
	}
	if d > 1<<12 {
		d = 1 << 12
	}
	return uint16(d)
}

func (s *Stream) genLoad(u *isa.Uop) {
	u.Class = isa.OpLoad
	u.Addr = s.dataAddr()
	h := mix64(u.PC ^ s.siteSeed ^ 0xf00d)
	// FP-ness and pointer-chasing are per-site properties of the static
	// load instruction.
	u.FPDest = float64(h&0xffff)/0x10000 < s.prof.FPLoadFrac
	chasing := float64((h>>16)&0xffff)/0x10000 < s.prof.ChaseProb
	if chasing && s.sinceLoad > 0 && s.sinceLoad <= 1<<12 {
		// The address depends on the previous load's result, serialising
		// misses (the mcf/art pattern that caps MLP).
		u.Dep1 = uint16(s.sinceLoad)
	} else {
		u.Dep1 = s.depDistance()
	}
}

func (s *Stream) genStore(u *isa.Uop) {
	u.Class = isa.OpStore
	u.Addr = s.dataAddr()
	u.Dep1 = s.depDistance() // address operand
	u.Dep2 = s.depDistance() // data operand
}

// dataAddr draws an effective address from the phase's working-set mixture.
// The region pick inlines rng.Pick with the cached weight total; the
// arithmetic (and therefore every draw) is identical.
func (s *Stream) dataAddr() uint64 {
	mix, total := &s.prof.FastMix, s.mixTotal[0]
	if s.slow {
		mix, total = &s.prof.SlowMix, s.mixTotal[1]
	}
	r := len(mix) - 1
	if total <= 0 {
		r = 0
	} else {
		x := s.rg.Float64() * total
		for i, w := range mix {
			if w <= 0 {
				continue
			}
			if x < w {
				r = i
				break
			}
			x -= w
		}
	}
	base, size := s.regBase[r], s.regSize[r]
	var addr uint64
	if s.rg.Bool(s.prof.StrideFrac) {
		addr = s.lastAddr[r] + 8
		if addr >= base+size {
			addr = base
		}
	} else {
		addr = base + (s.rg.Uint64() % size &^ 7)
	}
	s.lastAddr[r] = addr
	return addr
}

// genBranch synthesises a control-flow uop: per-site stable kind, bias and
// target so the gshare and BTB can learn, plus call/return flavours
// exercising the RAS.
func (s *Stream) genBranch(u *isa.Uop) {
	u.Class = isa.OpBranch
	u.Dep1 = s.depDistance() // condition operand

	h := mix64(u.PC ^ s.siteSeed)
	kindSel := float64((h>>32)&0xffff) / 0x10000
	switch {
	case kindSel < s.prof.CallFrac && len(s.callStack) < maxCallDepth:
		// Static call site.
		u.CallKind = isa.CallDirect
		u.Taken = true
		u.Target = s.siteTarget(u.PC)
		s.callStack = append(s.callStack, u.PC+4)
		return
	case kindSel >= s.prof.CallFrac && kindSel < 2*s.prof.CallFrac && len(s.callStack) > 0:
		// Static return site with a live call stack.
		u.CallKind = isa.CallReturn
		u.Taken = true
		u.Target = s.callStack[len(s.callStack)-1]
		s.callStack = s.callStack[:len(s.callStack)-1]
		return
	}

	// Plain conditional branch with a per-site stable bias.
	var bias float64
	if float64(h&0xffff)/0x10000 < s.prof.Predictability {
		// Strongly biased site; direction chosen by another hash bit.
		if h&0x10000 != 0 {
			bias = 0.97
		} else {
			bias = 0.03
		}
	} else {
		// Erratic (data-dependent) site: moderately biased, 25-75% taken.
		bias = 0.25 + float64((h>>20)&0xff)/256*0.5
	}
	u.Taken = s.rg.Bool(bias)
	if u.Taken {
		u.Target = s.siteTarget(u.PC)
	}
}

// siteTarget returns the stable jump target of the branch site at pc.
// Target geometry mimics real control flow: mostly short backward jumps
// (loops — these give the I-cache and BTB their locality), some short
// forward skips (if/else), and a tail of long-range jumps. Stability per
// site is essential: the BTB caches one target per branch PC.
func (s *Stream) siteTarget(pc uint64) uint64 {
	h := mix64(pc ^ s.siteSeed ^ 0xabcd)
	sel := h & 0xff
	code := uint64(s.prof.CodeBytes)
	var t uint64
	switch {
	case sel < 176: // ~69%: backward loop jump, 64B..2KB
		k := 64 + (h>>8)%1984
		if pc >= s.codeBase+k {
			t = pc - k
		} else {
			t = s.codeBase + (h>>16)%16*32
		}
	case sel < 232: // ~22%: forward skip, 32..512B
		k := 32 + (h>>8)%480
		t = pc + k
		if t >= s.codeBase+code {
			t = s.codeBase + (t-s.codeBase)%code
		}
	default: // ~9%: long-range jump anywhere in the code footprint
		t = s.codeBase + (h>>8)%code
	}
	// Land on a 32-byte block head (see classAt): the walk always executes
	// a sequential run after a jump.
	t &^= 31
	if t == pc { // a self-jump would wedge the PC model
		t = s.codeBase
	}
	return t
}

// WrongPath synthesises the wrong-path uop at PC wpc. Wrong-path uops
// consume fetch bandwidth, queue slots and registers until the squash,
// which is their entire purpose. The wrong path executes the same *static
// code* as the right path — same class per PC, same branch targets — so it
// loops within cached code just like real wrong-path execution (a junk PC
// walk into never-executed code would stall on I-cache misses and
// under-model the resource pressure the paper's policies fight over).
// The caller advances its wrong-path PC with NextWrongPC.
func (s *Stream) WrongPath(wpc uint64) isa.Uop {
	u := isa.Uop{
		Index:     ^uint64(0), // never a valid canonical index
		PC:        wpc,
		WrongPath: true,
	}
	u.Class = s.classAt(wpc)
	switch u.Class {
	case isa.OpBranch:
		// Follow per-site bias and target so the wrong path stays inside
		// the program's loops. These branches are never predicted or
		// resolved as mispredicts; they only steer wrong-path fetch.
		h := mix64(wpc ^ s.siteSeed)
		bias := 0.5
		if float64(h&0xffff)/0x10000 < s.prof.Predictability {
			if h&0x10000 != 0 {
				bias = 0.97
			} else {
				bias = 0.03
			}
		}
		u.Taken = s.wrg.Bool(bias)
		if u.Taken {
			u.Target = s.siteTarget(wpc)
		}
	case isa.OpLoad, isa.OpStore:
		// Wrong-path memory ops read the same working sets as the right
		// path (they are the same program), drawn from a parallel stream so
		// squashes cannot perturb canonical addresses. They pollute the
		// caches mildly, like real wrong-path execution.
		mix := s.prof.FastMix
		if s.slow {
			mix = s.prof.SlowMix
		}
		r := s.wrg.Pick(mix[:])
		u.Addr = s.regBase[r] + (s.wrg.Uint64() % s.regSize[r] &^ 7)
		u.FPDest = u.Class == isa.OpLoad && s.wrg.Bool(s.prof.FPLoadFrac)
	case isa.OpFPALU, isa.OpFPMul:
		u.FPDest = true
	}
	u.Dep1 = uint16(s.wrg.Intn(8))
	return u
}

// NextWrongPC returns the wrong-path PC following uop u (branch target or
// fall-through, wrapped into the code footprint).
func (s *Stream) NextWrongPC(u *isa.Uop) uint64 {
	if u.Class == isa.OpBranch && u.Taken {
		return u.Target
	}
	pc := u.PC + 4
	if pc >= s.codeBase+uint64(s.prof.CodeBytes) {
		pc = s.codeBase
	}
	return pc
}

// mix64 is SplitMix64's finaliser, used as a cheap stable hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
