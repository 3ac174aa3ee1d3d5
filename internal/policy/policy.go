// Package policy names, builds and shares the policies the paper compares
// DCRA against: ROUND-ROBIN, ICOUNT, STALL, FLUSH, FLUSH++, DG, PDG and the
// static resource allocation (SRA) baseline, plus Capped, the fixed-cap
// policy of the resource restriction study (Figure 2).
//
// As the paper describes them, every policy but ROUND-ROBIN is ICOUNT plus
// one mechanism, and each type embeds the policy it extends (ICount; Stall
// for Flush; Flush for FlushPP) and states only the fetch gate, flush or
// resource cap it adds. DCRA lives in internal/core, which cannot import
// this package. New builds every named policy, DCRA included, and the Name*
// constants are the one spelling of each name.
package policy

import (
	"fmt"
	"maps"
	"slices"

	"dcra/internal/config"
	"dcra/internal/core"
	"dcra/internal/cpu"
	"dcra/internal/isa"
)

// Policy names, as reports, cell keys and New spell them.
const (
	NameRR      = "RR"
	NameICount  = "ICOUNT"
	NameStall   = "STALL"
	NameFlush   = "FLUSH"
	NameFlushPP = "FLUSH++"
	NameDG      = "DG"
	NamePDG     = "PDG"
	NameSRA     = "SRA"
	NameDCRA    = "DCRA"
	// NameCap is Capped's name. New does not build Capped: its caps belong
	// to each run.
	NameCap = "CAP"
)

// builders maps each policy name to its constructor.
var builders = map[string]func(cfg config.Config) cpu.Policy{
	NameRR:      func(config.Config) cpu.Policy { return NewRoundRobin() },
	NameICount:  func(config.Config) cpu.Policy { return NewICount() },
	NameStall:   func(config.Config) cpu.Policy { return NewStall() },
	NameFlush:   func(config.Config) cpu.Policy { return NewFlush() },
	NameFlushPP: func(config.Config) cpu.Policy { return NewFlushPP() },
	NameDG:      func(config.Config) cpu.Policy { return NewDG() },
	NamePDG:     func(config.Config) cpu.Policy { return NewPDG() },
	NameSRA:     func(config.Config) cpu.Policy { return NewSRA() },
	// DCRA's sharing factor follows the paper's latency tuning (Section
	// 5.3), so it depends on cfg.
	NameDCRA: func(cfg config.Config) cpu.Policy { return core.New(core.OptionsForLatency(cfg.MemLatency)) },
}

// New builds a fresh instance of the named policy for a machine built from
// cfg. Policies carry per-run state: build one per machine.
func New(name string, cfg config.Config) (cpu.Policy, error) {
	mk, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("unknown policy %q (have %v)", name, Names())
	}
	return mk(cfg), nil
}

// Names lists every policy New builds, sorted.
func Names() []string { return slices.Sorted(maps.Keys(builders)) }

// RoundRobin fetches from all threads alternately, disregarding resource
// use (Tullsen et al., ISCA'95).
type RoundRobin struct{}

// NewRoundRobin returns the ROUND-ROBIN fetch policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements cpu.Policy.
func (*RoundRobin) Name() string { return NameRR }

// Tick implements cpu.Policy.
func (*RoundRobin) Tick(*cpu.Machine) {}

// Rank implements cpu.Policy: rotate priority with the cycle counter.
func (*RoundRobin) Rank(m *cpu.Machine, ts []int) {
	if len(ts) < 2 {
		return
	}
	k := int(m.Cycle()) % len(ts)
	rotated := append(append([]int(nil), ts[k:]...), ts[:k]...)
	copy(ts, rotated)
}

// Gate implements cpu.Policy.
func (*RoundRobin) Gate(*cpu.Machine, int) bool { return false }

// ICount prioritises threads with few instructions in the pre-issue stages
// (Tullsen et al., ISCA'96). It exercises no gating at all. Every other
// ICOUNT-ranked policy here embeds it and overrides only what it adds.
type ICount struct{}

// NewICount returns the ICOUNT fetch policy.
func NewICount() *ICount { return &ICount{} }

// Name implements cpu.Policy.
func (*ICount) Name() string { return NameICount }

// Tick implements cpu.Policy.
func (*ICount) Tick(*cpu.Machine) {}

// Rank implements cpu.Policy.
func (*ICount) Rank(m *cpu.Machine, ts []int) { cpu.RankByICount(m, ts) }

// Gate implements cpu.Policy.
func (*ICount) Gate(*cpu.Machine, int) bool { return false }

// Stall is ICOUNT plus fetch-stalling any thread with a detected in-flight
// L2 miss (Tullsen & Brown, MICRO'01). Because detection takes an L1+L2
// lookup, the thread has typically already allocated many entries — the
// "too late" weakness the paper discusses.
type Stall struct{ ICount }

// NewStall returns the STALL fetch policy.
func NewStall() *Stall { return &Stall{} }

// Name implements cpu.Policy.
func (*Stall) Name() string { return NameStall }

// Gate implements cpu.Policy.
func (*Stall) Gate(m *cpu.Machine, t int) bool { return m.PendingL2(t) > 0 }

// Flush extends STALL: on detecting an L2 miss it additionally squashes all
// of the thread's instructions younger than the missing load, making their
// resources available to other threads, at the cost of re-fetching them
// later (Tullsen & Brown, MICRO'01).
type Flush struct {
	Stall
	flushed []bool // per thread: already flushed for the current miss episode
}

// NewFlush returns the FLUSH fetch policy.
func NewFlush() *Flush { return &Flush{} }

// Name implements cpu.Policy.
func (*Flush) Name() string { return NameFlush }

// Tick implements cpu.Policy: fire one flush per miss episode.
func (f *Flush) Tick(m *cpu.Machine) { f.flushEpisodes(m, true) }

// flushEpisodes tracks each thread's L2 miss episodes, which end when no
// miss is pending, and with fire set flushes the thread once per episode.
func (f *Flush) flushEpisodes(m *cpu.Machine, fire bool) {
	if f.flushed == nil {
		f.flushed = make([]bool, m.NumThreads())
	}
	for t := 0; t < m.NumThreads(); t++ {
		if m.PendingL2(t) == 0 {
			f.flushed[t] = false
			continue
		}
		if fire && !f.flushed[t] {
			m.FlushThread(t)
			f.flushed[t] = true
		}
	}
}

// DG (data gating, El-Moursy & Albonesi, HPCA'03) stalls a thread on every
// pending L1 data miss — too severe when the L1 miss hits in L2, which is
// the policy's documented weakness.
type DG struct{ ICount }

// NewDG returns the DG fetch policy.
func NewDG() *DG { return &DG{} }

// Name implements cpu.Policy.
func (*DG) Name() string { return NameDG }

// Gate implements cpu.Policy.
func (*DG) Gate(m *cpu.Machine, t int) bool { return m.PendingL1D(t) > 0 }

// PDG (predictive data gating, El-Moursy & Albonesi, HPCA'03) gates fetch
// as soon as a fetched load is *predicted* to miss, using a table of 2-bit
// saturating counters indexed by load PC. Prediction removes the detection
// delay but adds another level of speculation; as the paper notes, cache
// misses are hard to predict, so PDG tends to over- and under-gate.
type PDG struct {
	ICount
	table   []uint8 // 2-bit counters, predicted-miss when >= 2
	pending []int   // per-thread count of in-flight predicted-miss loads
}

const pdgTableSize = 4096

// NewPDG returns the PDG fetch policy.
func NewPDG() *PDG { return &PDG{table: make([]uint8, pdgTableSize)} }

// Name implements cpu.Policy.
func (*PDG) Name() string { return NamePDG }

func (p *PDG) idx(pc uint64) int { return int((pc >> 2) % pdgTableSize) }

// Tick implements cpu.Policy. The predicted-miss accounting is approximate
// (squashed loads never resolve), so drain it whenever the thread empties.
func (p *PDG) Tick(m *cpu.Machine) {
	if p.pending == nil {
		p.pending = make([]int, m.NumThreads())
	}
	for t := 0; t < m.NumThreads(); t++ {
		if m.Usage(t, cpu.RROB) == 0 {
			p.pending[t] = 0
		}
	}
}

// Gate implements cpu.Policy.
func (p *PDG) Gate(m *cpu.Machine, t int) bool {
	return p.pending != nil && p.pending[t] > 0
}

// UopFetched implements cpu.FetchObserver.
func (p *PDG) UopFetched(m *cpu.Machine, t int, u *isa.Uop) {
	if u.Class != isa.OpLoad || p.pending == nil {
		return
	}
	if p.table[p.idx(u.PC)] >= 2 {
		p.pending[t]++
	}
}

// LoadResolved implements cpu.LoadObserver: train the miss predictor and
// release the gate.
func (p *PDG) LoadResolved(m *cpu.Machine, t int, pc uint64, l1Miss, l2Miss bool) {
	i := p.idx(pc)
	if l1Miss {
		if p.table[i] < 3 {
			p.table[i]++
		}
	} else if p.table[i] > 0 {
		p.table[i]--
	}
	if p.pending != nil && p.pending[t] > 0 && p.table[i] >= 2 {
		p.pending[t]--
	}
}

// SRA is the static resource allocation baseline: every shared resource is
// hard-partitioned into equal per-thread shares (Pentium 4 style); fetch
// priority is ICOUNT. Idle shares are wasted — the inflexibility DCRA
// addresses.
type SRA struct{ ICount }

// NewSRA returns the static allocation policy.
func NewSRA() *SRA { return &SRA{} }

// Name implements cpu.Policy.
func (*SRA) Name() string { return NameSRA }

// Cap implements cpu.Partitioner: equal static shares of every resource.
func (*SRA) Cap(m *cpu.Machine, t int, r cpu.Resource) int {
	return m.Total(r) / m.NumThreads()
}

// Capped is ICOUNT with fixed per-thread caps on selected resources (the
// paper's Figure 2). With no cap set it behaves exactly like ICOUNT.
type Capped struct {
	ICount
	Caps [cpu.NumResources]int // 0 = unlimited
}

// Name implements cpu.Policy.
func (*Capped) Name() string { return NameCap }

// Cap implements cpu.Partitioner.
func (c *Capped) Cap(m *cpu.Machine, t int, r cpu.Resource) int { return c.Caps[r] }
