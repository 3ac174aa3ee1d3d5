// Package config defines the simulated processor configuration.
//
// The zero value is not meaningful; start from Baseline (the paper's Table 2)
// and adjust fields for sweeps (register-file size for Figure 6, memory
// latency for Figure 7, queue scaling for Figure 2).
package config

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int // total capacity
	Assoc     int // ways per set
	LineBytes int // line size
	Banks     int // number of independently-ported banks
	Latency   int // access latency in cycles (hit)
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int {
	return c.SizeBytes / (c.Assoc * c.LineBytes)
}

// Geometry is the allocation-relevant subset of a CacheConfig: two caches
// with equal geometry have identical backing-array shapes and indexing, so
// one's storage can be reused for the other (only latency may differ).
type Geometry struct {
	SizeBytes int
	Assoc     int
	LineBytes int
	Banks     int
}

// Geometry returns the cache's allocation geometry.
func (c CacheConfig) Geometry() Geometry {
	return Geometry{SizeBytes: c.SizeBytes, Assoc: c.Assoc, LineBytes: c.LineBytes, Banks: c.Banks}
}

// Validate checks the geometry is realisable.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("config: non-positive cache geometry %+v", c)
	}
	if c.SizeBytes%(c.Assoc*c.LineBytes) != 0 {
		return fmt.Errorf("config: cache size %d not divisible by assoc*line %d*%d",
			c.SizeBytes, c.Assoc, c.LineBytes)
	}
	if c.Banks <= 0 {
		return fmt.Errorf("config: cache needs >= 1 bank, got %d", c.Banks)
	}
	if c.Latency < 1 {
		return fmt.Errorf("config: cache latency must be >= 1, got %d", c.Latency)
	}
	return nil
}

// Config is the full processor configuration (paper Table 2 for defaults).
type Config struct {
	// Pipeline widths and depth.
	FetchWidth  int // instructions fetched per cycle (total)
	FetchMaxTh  int // max threads fetched per cycle (ICOUNT2.8 -> 2)
	IssueWidth  int // instructions issued per cycle (total)
	CommitWidth int // instructions committed per cycle (total)
	// FrontEndDepth is the number of cycles between fetch and dispatch
	// (decode+rename stages). With fetch, queue, issue, regread(2), exec, WB
	// and commit it yields the paper's 12-stage depth.
	FrontEndDepth int
	// FrontEndBuffer is the per-thread capacity of the decode/rename pipe.
	FrontEndBuffer int

	// Issue queues (entries shared by all threads unless a policy partitions
	// them): integer, FP, load/store.
	IntQueue int
	FPQueue  int
	LSQueue  int

	// Functional units.
	IntUnits int
	FPUnits  int
	LSUnits  int

	// Execution latencies (cycles) per op class.
	IntALULat int
	IntMulLat int
	FPALULat  int
	FPMulLat  int

	// Register files. PhysRegs is the size of EACH of the integer and FP
	// physical register files (the paper fixes the physical count and
	// derives rename registers as PhysRegs - 32*threads per file).
	PhysRegs     int
	ArchRegs     int // architectural registers per thread per class
	RegReadCycle int // extra register-file access cycles (paper: 2-cycle)

	// Reorder buffer (shared).
	ROBSize int

	// Branch prediction.
	GshareEntries int // PHT entries (paper: 16K)
	BTBEntries    int
	BTBAssoc      int
	RASEntries    int

	// Memory hierarchy.
	ICache      CacheConfig
	DCache      CacheConfig
	L2          CacheConfig
	MemLatency  int // main memory latency in cycles
	TLBEntries  int
	TLBPenalty  int // TLB miss penalty in cycles
	PageBytes   int
	MSHREntries int // outstanding misses supported per level

	// PerfectICache/PerfectDCache force hits (Figure 2 uses a perfect L1D).
	PerfectICache bool
	PerfectDCache bool

	// Sampling is the sampled-execution schedule stamped onto sampled
	// campaign cells (sample.DeriveAdaptive(...).Config()); exact runs
	// leave it zero, and — via omitzero — the JSON form of every exact
	// configuration unchanged, so exact campaign cells keep their keys.
	Sampling SamplingConfig `json:"Sampling,omitzero"`
}

// SamplingConfig is the SMARTS-style sampled-execution schedule (see
// sample.Params for the protocol): after a pilot window and a fast-forward
// through the first SkipCycles cycle-equivalents, MinWindows to Windows
// windows of (Warmup detailed cycles with statistics frozen, then Measure
// measured detailed cycles) run, separated by rate-proportional
// fast-forward gaps of FFCycles cycle-equivalents. Windows beyond
// MinWindows run only while the 99.7% t-interval half-width of the
// throughput estimate exceeds TargetRelCIPpm parts-per-million of the mean.
// Each gap's body is fast-forwarded with stream-only draws, and the last
// WarmTail uops per thread before the next window get full cache/predictor
// warming. The zero value means "no schedule" (exact runs).
//
// The schedule is part of a sampled cell's content key, so any knob
// difference produces a distinct key and stores never mix schedules. The
// key of a sampled cell with no schedule belongs to the retired fixed
// 7-window protocol, which is why such cells no longer run.
type SamplingConfig struct {
	SkipCycles uint64 `json:"skip_cycles,omitempty"`
	FFCycles   uint64 `json:"ff_cycles,omitempty"`
	Warmup     uint64 `json:"warmup,omitempty"`
	Measure    uint64 `json:"measure,omitempty"`
	Windows    int    `json:"windows,omitempty"`

	// MinWindows is the window count run before the stopping rule applies.
	MinWindows int `json:"min_windows,omitempty"`
	// TargetRelCIPpm is the stopping target: relative 99.7% CI half-width
	// in parts-per-million of the mean (integer, so cell keys stay exact).
	TargetRelCIPpm int64 `json:"target_rel_ci_ppm,omitempty"`
	// WarmTail is the per-thread uop count at the end of each gap that gets
	// full functional warming; the gap body before it advances the stream
	// without touching caches or the predictor. It must be at least 1.
	WarmTail uint64 `json:"warm_tail,omitempty"`
}

// Enabled reports whether a schedule is configured.
func (s SamplingConfig) Enabled() bool { return s != SamplingConfig{} }

// Validate checks the schedule is runnable. It is the one rule set for
// sampling schedules: Config.Validate applies it to configured schedules
// and sample.Params.Validate to every run. The zero value fails.
func (s SamplingConfig) Validate() error {
	switch {
	case s.Measure == 0 || s.Windows <= 0:
		return fmt.Errorf("config: sampling needs a measure window and >= 1 windows, got %+v", s)
	case s.MinWindows < 1 || s.MinWindows > s.Windows:
		return fmt.Errorf("config: sampling min_windows must be in [1, windows], got %+v", s)
	case s.TargetRelCIPpm <= 0:
		return fmt.Errorf("config: sampling needs a positive target_rel_ci_ppm: %+v", s)
	case s.WarmTail == 0:
		return fmt.Errorf("config: sampling needs a warm_tail of at least 1 uop: %+v", s)
	}
	return nil
}

// Baseline returns the paper's Table 2 configuration.
func Baseline() Config {
	return Config{
		FetchWidth:     8,
		FetchMaxTh:     2,
		IssueWidth:     8,
		CommitWidth:    8,
		FrontEndDepth:  6,
		FrontEndBuffer: 32,

		IntQueue: 80,
		FPQueue:  80,
		LSQueue:  80,

		IntUnits: 6,
		FPUnits:  3,
		LSUnits:  4,

		IntALULat: 1,
		IntMulLat: 3,
		FPALULat:  4,
		FPMulLat:  4,

		PhysRegs:     352,
		ArchRegs:     32,
		RegReadCycle: 2,

		ROBSize: 512,

		GshareEntries: 16384,
		BTBEntries:    256,
		BTBAssoc:      4,
		RASEntries:    256,

		ICache: CacheConfig{SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64, Banks: 8, Latency: 1},
		DCache: CacheConfig{SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64, Banks: 8, Latency: 1},
		L2:     CacheConfig{SizeBytes: 512 << 10, Assoc: 8, LineBytes: 64, Banks: 8, Latency: 20},

		MemLatency:  300,
		TLBEntries:  128,
		TLBPenalty:  160,
		PageBytes:   8 << 10,
		MSHREntries: 32,
	}
}

// RenameRegs returns the number of rename registers available per register
// class when `threads` hardware contexts are active.
func (c Config) RenameRegs(threads int) int {
	return c.PhysRegs - c.ArchRegs*threads
}

// Validate checks internal consistency. It is called by the simulator
// constructor so misconfigured sweeps fail fast.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0 {
		return fmt.Errorf("config: non-positive pipeline width")
	}
	if c.FetchMaxTh <= 0 {
		return fmt.Errorf("config: FetchMaxTh must be >= 1")
	}
	if c.FrontEndDepth < 1 || c.FrontEndBuffer < c.FetchWidth {
		return fmt.Errorf("config: front end depth %d / buffer %d invalid",
			c.FrontEndDepth, c.FrontEndBuffer)
	}
	if c.IntQueue <= 0 || c.FPQueue <= 0 || c.LSQueue <= 0 {
		return fmt.Errorf("config: non-positive issue queue size")
	}
	if c.IntUnits <= 0 || c.FPUnits <= 0 || c.LSUnits <= 0 {
		return fmt.Errorf("config: non-positive functional unit count")
	}
	if c.PhysRegs <= c.ArchRegs {
		return fmt.Errorf("config: %d physical registers cannot back %d architectural",
			c.PhysRegs, c.ArchRegs)
	}
	if c.ROBSize <= 0 {
		return fmt.Errorf("config: non-positive ROB size")
	}
	if c.GshareEntries&(c.GshareEntries-1) != 0 {
		return fmt.Errorf("config: gshare entries %d not a power of two", c.GshareEntries)
	}
	if c.MemLatency <= 0 || c.MSHREntries <= 0 {
		return fmt.Errorf("config: non-positive memory parameters")
	}
	if c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("config: page size %d not a power of two", c.PageBytes)
	}
	for _, cc := range []CacheConfig{c.ICache, c.DCache, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if c.Sampling.Enabled() {
		return c.Sampling.Validate()
	}
	return nil
}

// WithMemLatency returns a copy with main-memory and L2 latency set, used by
// the Figure 7 sweep (PaperLatencies).
func (c Config) WithMemLatency(mem, l2 int) Config {
	c.MemLatency = mem
	c.L2.Latency = l2
	return c
}

// LatencyPair is a main-memory latency and the L2 latency paired with it.
type LatencyPair struct{ Mem, L2 int }

// PaperLatencies are the paper's memory-latency points (Section 5.3),
// shortest first: Figure 7 sweeps them.
var PaperLatencies = []LatencyPair{{100, 10}, {300, 20}, {500, 25}}

// WithPaperMemLatency returns a copy with main-memory latency mem and, when
// mem is one of PaperLatencies, the L2 latency the paper pairs with it; any
// other mem keeps the L2 latency.
func (c Config) WithPaperMemLatency(mem int) Config {
	l2 := c.L2.Latency
	for _, p := range PaperLatencies {
		if p.Mem == mem {
			l2 = p.L2
		}
	}
	return c.WithMemLatency(mem, l2)
}

// WithPhysRegs returns a copy with the physical register file size set (per
// class), used by the Figure 6 sweep.
func (c Config) WithPhysRegs(n int) Config {
	c.PhysRegs = n
	return c
}
