package cpu

import (
	"fmt"

	"dcra/internal/branch"
	"dcra/internal/cache"
	"dcra/internal/config"
	"dcra/internal/isa"
	"dcra/internal/stats"
	"dcra/internal/trace"
)

// prodEntry records an in-flight value producer so consumers can resolve
// positional dependences to physical registers. Cleared at commit or squash.
type prodEntry struct {
	idx  uint64 // canonical stream index; ^0 when empty
	phys int32
	cls  isa.RegClass
}

// feEntry is one slot of a thread's front-end (decode/rename) pipe.
type feEntry struct {
	u            isa.Uop
	readyAt      uint64 // cycle at which the uop may dispatch
	mispredicted bool
	rasTop       int32
}

// frontEnd is a fixed-capacity FIFO modelling a thread's decode/rename
// pipe. The ring is sized to the next power of two so the hot push/pop
// paths mask instead of dividing; limit keeps the modelled capacity exact.
type frontEnd struct {
	ring  []feEntry
	mask  int
	head  int
	count int
	limit int
}

func newFrontEnd(capacity int) frontEnd {
	n := pow2AtLeast(capacity)
	return frontEnd{ring: make([]feEntry, n), mask: n - 1, limit: capacity}
}

// pow2AtLeast returns the smallest power of two >= n (1 for n <= 1).
func pow2AtLeast(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (f *frontEnd) full() bool  { return f.count == f.limit }
func (f *frontEnd) empty() bool { return f.count == 0 }

// push claims the slot past the youngest entry and returns it; the caller
// fills every field in place.
func (f *frontEnd) push() *feEntry {
	e := &f.ring[(f.head+f.count)&f.mask]
	f.count++
	return e
}

func (f *frontEnd) peek() *feEntry { return &f.ring[f.head] }

func (f *frontEnd) pop() {
	f.head = (f.head + 1) & f.mask
	f.count--
}

func (f *frontEnd) clear() { f.head, f.count = 0, 0 }

// reset restores the pipe to its post-construction state for the given
// modelled capacity; the ring is reused (the caller guarantees it is large
// enough via Shape matching).
func (f *frontEnd) reset(capacity int) {
	f.clear()
	f.limit = capacity
}

// threadState groups the per-thread fetch bookkeeping.
type threadState struct {
	stream   *trace.Stream
	fetchIdx uint64 // next canonical index to fetch

	wrongPath bool
	wpPC      uint64

	icacheReadyAt uint64
	gen           uint32 // squash generation counter
	parked        bool   // idle context: fetch skips it entirely

	// Fast-forward same-line collapse state, persisted across interleave
	// quanta within one fast-forward episode (reset by ffRewind).
	ffLastLine uint64
	ffLastData uint64
}

// Machine is one simulated SMT processor running a fixed set of threads.
type Machine struct {
	cfg config.Config
	nt  int

	pol      Policy
	part     Partitioner   // non-nil when pol partitions resources
	fetchObs FetchObserver // non-nil when pol observes fetches
	loadObs  LoadObserver  // non-nil when pol observes load resolution

	hier *cache.Hierarchy
	pred *branch.Predictor

	threads []threadState
	fe      []frontEnd
	rob     []*threadROB
	robUsed int

	iqs  [3]*issueQueue // indexed by isa.Queue
	regs [2]*regFile    // int, fp

	// prod holds each thread's in-flight right-path producers, indexed by
	// canonical stream index modulo the ring size, the smallest power of
	// two >= ROBSize (prodMask is that size minus one). No two live
	// producers share a slot: dispatch needs robUsed < ROBSize, and a
	// thread's in-flight right-path uops are consecutive stream indices,
	// so they span at most ROBSize consecutive values.
	prod     [][]prodEntry
	prodMask uint64

	// usage[t][r] is thread t's occupancy of resource r: exactly the
	// paper's DCRA occupancy counters (3 IQs, 2 register files) plus ROB
	// occupancy.
	usage [][NumResources]int

	// Pending-miss counters (paper: one pending L1D-miss counter per
	// thread; we also track pending L2 misses for STALL/FLUSH).
	pendingL1D []int
	pendingL2  []int

	events eventQueue

	// Scratch reused each cycle by commit and dispatch: the round-robin
	// passes gather live candidate threads once and then walk only those,
	// and dispatch hoists the partitioner caps per thread per cycle (every
	// Partitioner's Cap is a pure function of Tick-computed state, so the
	// per-uop interface calls collapse to array reads in tryDispatch).
	commitBuf []int32
	dispBuf   []int32
	capBuf    [][NumResources]int
	ffBuf     []uint64 // fast-forward budget scratch

	cycle    uint64
	ageStamp uint64
	commitRR int
	fetchRR  int

	st        *stats.Stats
	rankBuf   []int
	totalRes  [NumResources]int
	commitObs CommitObserver // optional per-commit hook, nil almost always

	// ckpts is the canonical-stream checkpoint store the machine's streams
	// use (see SetCheckpoints); nil outside a pool.
	ckpts *trace.Checkpoints
}

// Shape captures the allocation geometry of a Machine: two machines with
// equal shapes have identical backing-array sizes and indexing structure for
// every component, so one's storage can be rebound to the other's
// configuration (latencies, widths and policy may differ freely). Shape is
// comparable and keys machine pools.
type Shape struct {
	Threads        int
	FrontEndBuffer int
	ROBSize        int
	IntQueue       int
	FPQueue        int
	LSQueue        int
	RenameRegs     int

	ICache, DCache, L2 config.Geometry
	TLBEntries         int
	PageBytes          int

	GshareEntries int
	BTBEntries    int
	BTBAssoc      int
	RASEntries    int
}

// ShapeOf returns the allocation shape of a machine built from cfg with the
// given thread count.
func ShapeOf(cfg config.Config, threads int) Shape {
	return Shape{
		Threads:        threads,
		FrontEndBuffer: cfg.FrontEndBuffer,
		ROBSize:        cfg.ROBSize,
		IntQueue:       cfg.IntQueue,
		FPQueue:        cfg.FPQueue,
		LSQueue:        cfg.LSQueue,
		RenameRegs:     cfg.RenameRegs(threads),
		ICache:         cfg.ICache.Geometry(),
		DCache:         cfg.DCache.Geometry(),
		L2:             cfg.L2.Geometry(),
		TLBEntries:     cfg.TLBEntries,
		PageBytes:      cfg.PageBytes,
		GshareEntries:  cfg.GshareEntries,
		BTBEntries:     cfg.BTBEntries,
		BTBAssoc:       cfg.BTBAssoc,
		RASEntries:     cfg.RASEntries,
	}
}

// New builds a Machine running one Stream per profile under the given
// policy. The seed fixes all synthetic-workload randomness. New is Reinit on
// a zero Machine, whose shape matches no cell's: there is one
// initialisation, and a fresh machine and a reused one differ only in where
// their backing arrays came from.
func New(cfg config.Config, profiles []trace.Profile, pol Policy, seed uint64) (*Machine, error) {
	m := new(Machine)
	if err := m.Reinit(cfg, profiles, pol, seed); err != nil {
		return nil, err
	}
	return m, nil
}

// alloc gives the machine fresh backing arrays for cfg's shape with one
// thread per profile, keeping its checkpoint store. What alloc leaves in
// them does not matter: Reinit sets every field afterwards, on fresh and
// reused arrays alike.
func (m *Machine) alloc(cfg config.Config, profiles []trace.Profile, seed uint64) {
	nt := len(profiles)
	m.nt = nt
	m.hier = cache.NewHierarchy(cfg)
	m.pred = branch.New(cfg, nt)

	m.threads = make([]threadState, nt)
	m.fe = make([]frontEnd, nt)
	m.rob = make([]*threadROB, nt)
	m.prod = make([][]prodEntry, nt)
	prodSize := pow2AtLeast(cfg.ROBSize)
	m.prodMask = uint64(prodSize - 1)
	for t := 0; t < nt; t++ {
		m.threads[t].stream = trace.NewStream(profiles[t], t, seed)
		m.threads[t].stream.UseCheckpoints(m.ckpts)
		m.fe[t] = newFrontEnd(cfg.FrontEndBuffer)
		m.rob[t] = newThreadROB(cfg.ROBSize)
		m.prod[t] = make([]prodEntry, prodSize)
	}

	m.usage = make([][NumResources]int, nt)
	m.pendingL1D = make([]int, nt)
	m.pendingL2 = make([]int, nt)

	m.commitBuf = make([]int32, 0, nt)
	m.dispBuf = make([]int32, 0, nt)
	m.capBuf = make([][NumResources]int, nt)
	m.ffBuf = make([]uint64, 0, nt)
	m.rankBuf = make([]int, 0, nt)
	m.events = newEventQueue()

	rename := cfg.RenameRegs(nt)
	m.iqs[isa.QInt] = newIssueQueue(cfg.IntQueue)
	m.iqs[isa.QFP] = newIssueQueue(cfg.FPQueue)
	m.iqs[isa.QLoadStore] = newIssueQueue(cfg.LSQueue)
	m.regs[0] = newRegFile(rename)
	m.regs[1] = newRegFile(rename)
}

// bindPolicy installs pol and rebinds the optional observer interfaces.
func (m *Machine) bindPolicy(pol Policy) {
	m.pol = pol
	m.part, m.fetchObs, m.loadObs = nil, nil, nil
	if p, ok := pol.(Partitioner); ok {
		m.part = p
		if c, ok := pol.(DispatchCapper); ok && !c.EnforcesCaps() {
			// Caps are disabled by construction: Cap would return 0 for
			// every (thread, resource) forever, so skip the machinery.
			m.part = nil
		}
	}
	if o, ok := pol.(FetchObserver); ok {
		m.fetchObs = o
	}
	if o, ok := pol.(LoadObserver); ok {
		m.loadObs = o
	}
}

// bindStream rebinds thread t's stream to (profile, seed) and restarts the
// thread's fetch state at squash generation gen, with no producer in
// flight. The caller prewarms the new stream's working set afterwards.
func (m *Machine) bindStream(t int, profile trace.Profile, seed uint64, gen uint32) {
	ts := &m.threads[t]
	ts.stream.Rebind(profile, t, seed)
	*ts = threadState{stream: ts.stream, gen: gen}
	prod := m.prod[t]
	for i := range prod {
		prod[i].idx = ^uint64(0)
	}
}

// prewarm inserts thread t's resident working set: the measurement window
// models a slice of a long-running program (see cache.Hierarchy.PrewarmData).
func (m *Machine) prewarm(t int) {
	fp := m.threads[t].stream.Footprint()
	m.hier.PrewarmCode(fp.CodeBase, fp.CodeBytes)
	m.hier.PrewarmData(fp.HotBase, fp.HotBytes, true)
	m.hier.PrewarmData(fp.WarmBase, fp.WarmBytes, false)
}

// TotalOf returns the number of entries of resource r that a machine built
// from cfg shares among threads hardware contexts: what Machine.Total
// reports once the machine is bound.
func TotalOf(cfg config.Config, threads int, r Resource) int {
	switch r {
	case RIntIQ:
		return cfg.IntQueue
	case RFPIQ:
		return cfg.FPQueue
	case RLSIQ:
		return cfg.LSQueue
	case RIntRegs, RFPRegs:
		return cfg.RenameRegs(threads)
	case RROB:
		return cfg.ROBSize
	}
	return 0
}

// Shape returns the machine's allocation shape (the pool key).
func (m *Machine) Shape() Shape { return ShapeOf(m.cfg, m.nt) }

// Reinit rebinds the machine to a new (cfg, profiles, pol, seed) cell,
// reusing every backing allocation when the new cell's Shape matches the
// machine's and reallocating them (alloc) otherwise. After Reinit the machine
// is observationally identical to New(cfg, profiles, pol, seed): the
// reuse-bit-identity tests assert equal statistics cycle for cycle.
//
// The machine's previous Stats are abandoned, never mutated, so results
// extracted from an earlier run remain valid after the machine is reused.
func (m *Machine) Reinit(cfg config.Config, profiles []trace.Profile, pol Policy, seed uint64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	nt := len(profiles)
	if nt == 0 {
		return fmt.Errorf("cpu: no threads")
	}
	if cfg.RenameRegs(nt) <= 0 {
		return fmt.Errorf("cpu: %d physical registers cannot support %d threads",
			cfg.PhysRegs, nt)
	}
	if ShapeOf(cfg, nt) != m.Shape() {
		m.alloc(cfg, profiles, seed)
	}

	// prewarm fills the reset hierarchy from the rebound streams'
	// footprints, so it runs after both.
	m.cfg = cfg
	m.bindPolicy(pol)
	if !m.hier.Reinit(cfg) {
		panic("cpu: Shape does not cover the cache geometry")
	}
	m.pred.Reset()

	for t := 0; t < nt; t++ {
		m.bindStream(t, profiles[t], seed, 0)
		m.fe[t].reset(cfg.FrontEndBuffer)
		m.rob[t].reset()
		m.usage[t] = [NumResources]int{}
		m.pendingL1D[t] = 0
		m.pendingL2[t] = 0
	}
	for t := 0; t < nt; t++ {
		m.prewarm(t)
	}

	for _, q := range m.iqs {
		q.reset()
	}
	for _, rf := range m.regs {
		rf.reset()
	}
	m.robUsed = 0
	m.events.reset()
	m.cycle, m.ageStamp = 0, 0
	m.commitRR, m.fetchRR = 0, 0
	m.st = stats.New(nt)
	m.rankBuf = m.rankBuf[:0]
	m.commitObs = nil
	for r := range m.totalRes {
		m.totalRes[r] = TotalOf(cfg, nt, Resource(r))
	}
	return nil
}

// SetCheckpoints hands checkpoint store c to every thread's stream (nil
// detaches), so their fast-forward skims restore generator state other
// streams of the same identity already reached. Results are bit-identical
// with or without a store. The attachment survives Reinit and
// RebindThread; machine pools attach their store to every machine they
// serve.
func (m *Machine) SetCheckpoints(c *trace.Checkpoints) {
	m.ckpts = c
	for t := range m.threads {
		m.threads[t].stream.UseCheckpoints(c)
	}
}

// ---- accessors used by policies and the experiment harness ----

// Config returns the machine's configuration.
func (m *Machine) Config() config.Config { return m.cfg }

// NumThreads returns the number of hardware contexts in use.
func (m *Machine) NumThreads() int { return m.nt }

// Cycle returns the current cycle number.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Stats returns the live statistics (reset by ResetStats after warmup).
func (m *Machine) Stats() *stats.Stats { return m.st }

// Hierarchy exposes the memory system (tests and reports).
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// Total returns the number of entries of resource r shared by all threads.
func (m *Machine) Total(r Resource) int { return m.totalRes[r] }

// Usage returns thread t's current occupancy of resource r.
func (m *Machine) Usage(t int, r Resource) int { return m.usage[t][r] }

// ICount returns the paper's ICOUNT statistic for thread t: instructions in
// the pre-issue stages (front-end pipe plus issue queues).
func (m *Machine) ICount(t int) int {
	u := &m.usage[t]
	return m.fe[t].count + u[RIntIQ] + u[RFPIQ] + u[RLSIQ]
}

// PendingL1D returns thread t's in-flight L1 data misses (detected, not yet
// filled) — the paper's slow/fast classification signal.
func (m *Machine) PendingL1D(t int) int { return m.pendingL1D[t] }

// PendingL2 returns thread t's in-flight main-memory misses.
func (m *Machine) PendingL2(t int) int { return m.pendingL2[t] }

// ResetStats zeroes statistics while preserving microarchitectural state;
// call after warmup.
func (m *Machine) ResetStats() {
	m.st = stats.New(m.nt)
	m.hier.ResetStats()
}

// Run advances the machine n cycles.
func (m *Machine) Run(n uint64) {
	for i := uint64(0); i < n; i++ {
		m.step()
	}
}
