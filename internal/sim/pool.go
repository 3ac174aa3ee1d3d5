package sim

import (
	"sync"

	"dcra/internal/config"
	"dcra/internal/cpu"
	"dcra/internal/obs"
	"dcra/internal/trace"
)

// MachinePool recycles cpu.Machine allocations across simulation cells.
// Machines are bucketed by cpu.Shape (the allocation geometry), so a pooled
// machine is always rebound via the cheap in-place Reinit path; cells whose
// shape has never been seen Reinit a zero machine, which allocates. The pool
// is safe for concurrent use by the engine's workers: each bucket is a
// sync.Pool, whose per-P caches make Get/Put contention-free on the hot
// path, and whose GC integration keeps idle campaigns from pinning retired
// machine arenas.
//
// The pool also owns the canonical-stream checkpoint store its machines
// share (trace.Checkpoints): a sampled cell's fast-forward skims restore
// generator state that an earlier cell of the pool already walked for the
// same (profile, thread slot, seed), instead of re-deriving it. Exact cells
// never skim, so they never touch it. The store lives as long as the pool
// and grows with the canonical reach of the streams skimmed through it.
//
// A nil *MachinePool is valid and degenerates to fresh construction per
// call, which is what keeps pooling transparent to zero-value Runners.
type MachinePool struct {
	mu    sync.Mutex
	pools map[cpu.Shape]*sync.Pool
	ckpts *trace.Checkpoints

	hits   *obs.Counter // Get served by a pooled machine
	misses *obs.Counter // Get allocated a fresh machine
}

// NewMachinePool returns an empty pool.
func NewMachinePool() *MachinePool {
	return &MachinePool{pools: make(map[cpu.Shape]*sync.Pool), ckpts: trace.NewCheckpoints()}
}

// SetObs resolves the pool's hit/miss counters from reg; a nil reg (or
// never calling SetObs) leaves the pool uninstrumented.
func (p *MachinePool) SetObs(reg *obs.Registry) {
	if p == nil {
		return
	}
	p.hits = reg.Counter("pool.machine.hits")
	p.misses = reg.Counter("pool.machine.misses")
}

// bucket returns the sync.Pool for sh, creating it on first use.
func (p *MachinePool) bucket(sh cpu.Shape) *sync.Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp := p.pools[sh]
	if sp == nil {
		sp = &sync.Pool{}
		p.pools[sh] = sp
	}
	return sp
}

// Get returns a machine initialised for (cfg, profiles, pol, seed): a pooled
// machine of the matching shape when one is available, a zero one otherwise.
// Either way Reinit initialises it, so it is observationally identical to
// cpu.New(cfg, profiles, pol, seed) and callers need not know which path
// served them.
func (p *MachinePool) Get(cfg config.Config, profiles []trace.Profile, pol cpu.Policy, seed uint64) (*cpu.Machine, error) {
	if p == nil {
		return cpu.New(cfg, profiles, pol, seed)
	}
	m, ok := p.bucket(cpu.ShapeOf(cfg, len(profiles))).Get().(*cpu.Machine)
	if ok {
		p.hits.Inc()
	} else {
		p.misses.Inc()
		m = new(cpu.Machine)
	}
	if err := m.Reinit(cfg, profiles, pol, seed); err != nil {
		return nil, err
	}
	m.SetCheckpoints(p.ckpts)
	return m, nil
}

// Put returns a machine to the pool for later reuse. The caller must be done
// with the machine itself; results already extracted from it (Stats objects,
// IPCs) remain valid because Reinit abandons rather than clears the old
// statistics.
func (p *MachinePool) Put(m *cpu.Machine) {
	if p == nil || m == nil {
		return
	}
	p.bucket(m.Shape()).Put(m)
}
