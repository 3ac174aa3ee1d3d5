// Package branch implements the front-end branch prediction machinery of
// the simulated processor: a gshare direction predictor, a set-associative
// branch target buffer, and a per-thread return address stack (paper
// Table 2: 16K-entry gshare, 256-entry 4-way BTB, 256-entry RAS).
//
// The predictor tables are shared between hardware threads (as in SMTSIM);
// global branch history is kept per thread, since interleaving histories
// destroys all correlation.
package branch

import (
	"dcra/internal/config"
	"dcra/internal/isa"
)

// Prediction is the front end's view of a branch before execution.
type Prediction struct {
	Taken  bool
	Target uint64 // meaningful only if Taken
	// TargetKnown reports whether a target was available (BTB or RAS hit).
	// A predicted-taken branch without a target cannot redirect fetch and
	// is handled as a (mis)predicted not-taken by the pipeline.
	TargetKnown bool
}

// Predictor bundles gshare + BTB + RAS.
type Predictor struct {
	pht     []uint8 // 2-bit saturating counters
	phtMask uint64
	history []uint64 // per-thread global history
	btb     *btb
	ras     []*ras
}

// New builds a predictor for cfg and the given number of threads.
func New(cfg config.Config, threads int) *Predictor {
	p := &Predictor{
		pht:     make([]uint8, cfg.GshareEntries),
		phtMask: uint64(cfg.GshareEntries - 1),
		history: make([]uint64, threads),
		btb:     newBTB(cfg.BTBEntries, cfg.BTBAssoc),
		ras:     make([]*ras, threads),
	}
	for i := range p.ras {
		p.ras[i] = newRAS(cfg.RASEntries)
	}
	p.Reset()
	return p
}

// Reset puts the predictor in its initial state — weakly-taken counters,
// empty histories, invalid BTB, empty return stacks — without reallocating
// any table. New ends with it, so a reset predictor is bit-identical to a
// freshly built one; the machine-reuse lifecycle depends on this.
func (p *Predictor) Reset() {
	for i := range p.pht {
		p.pht[i] = 2 // weakly taken: avoids a cold not-taken bias
	}
	clear(p.history)
	clear(p.btb.sets)
	p.btb.stamp = 0
	for _, r := range p.ras {
		r.top = 0
	}
}

// histBits bounds the global-history contribution to the PHT index. The
// synthetic branch outcomes are per-site Bernoulli draws with no real
// cross-branch correlation, so long histories cannot help prediction — they
// only fragment each site's training across 2^k PHT entries. Eight bits
// keeps the gshare structure (and its aliasing behaviour) while letting
// counters converge to the per-site bias bound, which is what a real
// predictor achieves on real code.
const histBits = 8

func (p *Predictor) index(thread int, pc uint64) uint64 {
	return ((pc >> 2) ^ (p.history[thread] & (1<<histBits - 1))) & p.phtMask
}

// Predict produces the front end's prediction for a branch uop, then
// immediately trains the tables with the canonical outcome and folds the
// true direction into the history. Training at lookup time — with the same
// PHT index the prediction used — is the standard trace-driven idealisation;
// deferring it to resolution would train a *different* index (the history
// has moved on) and the predictor would never learn. The misprediction
// *penalty* is still paid architecturally: the pipeline fetches down the
// wrong path until the branch resolves. The history is never speculative:
// wrong-path uops are never predicted, so when a mispredicted branch
// resolves its true outcome is already the history's last bit, and recovery
// has nothing to repair.
func (p *Predictor) Predict(thread int, u *isa.Uop) Prediction {
	var pr Prediction
	switch u.CallKind {
	case CallReturnKind:
		if t, ok := p.ras[thread].pop(); ok {
			pr = Prediction{Taken: true, Target: t, TargetKnown: true}
		} else {
			pr = Prediction{Taken: true}
		}
	case CallDirectKind:
		p.ras[thread].push(u.PC + 4)
		target, hit := p.btb.lookup(u.PC)
		pr = Prediction{Taken: true, Target: target, TargetKnown: hit}
	default:
		idx := p.index(thread, u.PC)
		ctr := p.pht[idx]
		taken := ctr >= 2
		pr = Prediction{Taken: taken}
		if taken {
			pr.Target, pr.TargetKnown = p.btb.lookup(u.PC)
		}
		// Train with the true outcome at the index just used.
		if u.Taken {
			if ctr < 3 {
				p.pht[idx] = ctr + 1
			}
		} else if ctr > 0 {
			p.pht[idx] = ctr - 1
		}
	}
	p.history[thread] = p.history[thread]<<1 | b2u(u.Taken)
	if u.Taken && u.CallKind != CallReturnKind {
		p.btb.insert(u.PC, u.Target)
	}
	return pr
}

// RASTop returns thread t's return-address-stack depth, snapshotted by the
// front end before each fetched uop so squashes can repair the stack.
func (p *Predictor) RASTop(t int) int32 { return int32(p.ras[t].top) }

// SetRASTop restores thread t's RAS depth to a snapshot taken earlier. The
// stack contents below the snapshot are assumed intact (entries above may
// have been clobbered, as in real hardware TOS-pointer recovery).
func (p *Predictor) SetRASTop(t int, top int32) {
	if int(top) <= p.ras[t].size {
		p.ras[t].top = int(top)
	}
}

// Aliases so this package does not leak isa constants into its API surface.
const (
	CallNoneKind   = isa.CallNone
	CallDirectKind = isa.CallDirect
	CallReturnKind = isa.CallReturn
)

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ---- BTB ----

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
	lru    uint64
}

type btb struct {
	sets    []btbEntry
	assoc   int
	setMask uint64
	stamp   uint64
}

func newBTB(entries, assoc int) *btb {
	sets := entries / assoc
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("branch: BTB sets must be a positive power of two")
	}
	return &btb{sets: make([]btbEntry, entries), assoc: assoc, setMask: uint64(sets - 1)}
}

func (b *btb) set(pc uint64) []btbEntry {
	s := (pc >> 2) & b.setMask
	return b.sets[s*uint64(b.assoc) : (s+1)*uint64(b.assoc)]
}

func (b *btb) lookup(pc uint64) (uint64, bool) {
	b.stamp++
	set := b.set(pc)
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			set[i].lru = b.stamp
			return set[i].target, true
		}
	}
	return 0, false
}

func (b *btb) insert(pc, target uint64) {
	b.stamp++
	set := b.set(pc)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			set[i].target = target
			set[i].lru = b.stamp
			return
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = btbEntry{tag: pc, target: target, valid: true, lru: b.stamp}
}

// ---- RAS ----

type ras struct {
	stack []uint64
	top   int // number of valid entries (wraps: oldest overwritten)
	size  int
}

func newRAS(n int) *ras { return &ras{stack: make([]uint64, n), size: n} }

func (r *ras) push(addr uint64) {
	if r.top < r.size {
		r.stack[r.top] = addr
		r.top++
		return
	}
	// Full: shift is too costly; overwrite circularly by dropping the oldest.
	copy(r.stack, r.stack[1:])
	r.stack[r.size-1] = addr
}

func (r *ras) pop() (uint64, bool) {
	if r.top == 0 {
		return 0, false
	}
	r.top--
	return r.stack[r.top], true
}
