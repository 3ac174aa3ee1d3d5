// Package core implements DCRA — Dynamically Controlled Resource Allocation
// (Cazorla et al., MICRO-37, 2004) — the paper's primary contribution.
//
// DCRA is a *resource allocation policy*: beyond ranking threads for fetch
// (ICOUNT order), it continuously classifies threads and directly bounds
// how many entries of each critical shared resource a resource-hungry
// thread may hold:
//
//   - Phase classification: a thread with pending L1 data misses is "slow"
//     (it will hold resources for a long time); otherwise it is "fast".
//   - Activity classification: per FP resource, a thread that has held no
//     entry for Y consecutive cycles is "inactive" and its share is
//     redistributed.
//   - Sharing model: each slow-active thread may hold at most
//     E_slow = R/(FA+SA) * (1 + C*FA) entries of a resource, where fast
//     threads lend the C-fraction of their share. A slow-active thread
//     exceeding its bound for any resource is fetch-stalled until it
//     releases entries. Fast threads are never bounded.
package core

import (
	"dcra/internal/cpu"
)

// SharingFactor selects the denominator K of the sharing factor C = 1/K.
// The paper tunes C to the memory latency (Section 5.3): 1/T at 100 cycles,
// 1/(T+4) at 300, and 0 for the IQs at 500; Table 1 is computed with
// C = 1/(FA+SA).
type SharingFactor int

// Sharing factor modes.
const (
	// CActive uses C = 1/(FA+SA) — the dynamic form behind Table 1.
	CActive SharingFactor = iota
	// CThreads uses C = 1/T (paper's best at 100-cycle memory latency).
	CThreads
	// CThreadsPlus4 uses C = 1/(T+4) (paper's best at 300 cycles).
	CThreadsPlus4
	// CZero disables lending: slow threads get exactly the fair share
	// (paper's choice for the IQs at 500-cycle latency).
	CZero
)

// Options configure DCRA variants; the zero value is NOT the paper default,
// use DefaultOptions.
type Options struct {
	// ActivityY is the activity-counter reset value (paper: 256, swept
	// 64..8192 in the ablation).
	ActivityY int
	// IQFactor and RegFactor pick the sharing factor per resource group;
	// the paper differentiates them only at 500-cycle memory latency.
	IQFactor  SharingFactor
	RegFactor SharingFactor
	// TrackAllActivity extends inactivity detection from the FP resources
	// (paper behaviour) to all five resources (ablation).
	TrackAllActivity bool
	// ClassifyOnL2 uses pending L2 misses instead of pending L1D misses
	// for the slow/fast split (ablation; the paper chose L1D).
	ClassifyOnL2 bool
	// EnforceDispatch additionally enforces E_slow as a dispatch-stage cap
	// (ablation; the paper enforces at fetch only).
	EnforceDispatch bool
}

// DefaultOptions returns the paper's baseline DCRA configuration for the
// 300-cycle memory latency.
func DefaultOptions() Options {
	return Options{ActivityY: 256, IQFactor: CThreadsPlus4, RegFactor: CThreadsPlus4}
}

// OptionsForLatency returns the latency-tuned configuration from Section
// 5.3 of the paper.
func OptionsForLatency(memLatency int) Options {
	o := DefaultOptions()
	switch {
	case memLatency <= 100:
		o.IQFactor, o.RegFactor = CThreads, CThreads
	case memLatency <= 300:
		o.IQFactor, o.RegFactor = CThreadsPlus4, CThreadsPlus4
	default:
		o.IQFactor, o.RegFactor = CZero, CThreadsPlus4
	}
	return o
}

// DCRA implements cpu.Policy (and cpu.Partitioner for the dispatch-gating
// ablation).
type DCRA struct {
	opt Options

	// Per-thread, per-resource activity counters: thread t is active for r
	// while activity[t][r] > 0. Indexed [thread][resource]; only the five
	// DCRA resources are used.
	activity [][cpu.NumResources]int

	slow  []bool
	gated []bool

	// tracked holds the resources whose activity counters actually evolve
	// (FP only, unless TrackAllActivity); untracked resources are active for
	// every thread on every cycle, so their fast-active/slow-active counts
	// are the plain fast/slow thread totals.
	tracked   []cpu.Resource
	untracked []cpu.Resource

	// limits[r] is E_slow for resource r this cycle (0 when no slow-active
	// thread competes for r).
	limits [cpu.NumResources]int
}

// New returns a DCRA policy with the given options.
func New(opt Options) *DCRA {
	if opt.ActivityY <= 0 {
		opt.ActivityY = 256
	}
	return &DCRA{opt: opt}
}

// Default returns DCRA with the paper's baseline options.
func Default() *DCRA { return New(DefaultOptions()) }

// Name implements cpu.Policy.
func (d *DCRA) Name() string { return "DCRA" }

// Rank implements cpu.Policy (ICOUNT priority, as in the paper's setup).
func (d *DCRA) Rank(m *cpu.Machine, ts []int) { cpu.RankByICount(m, ts) }

// Gate implements cpu.Policy: slow-active threads exceeding their E_slow
// for any resource are fetch-stalled until they release entries.
func (d *DCRA) Gate(m *cpu.Machine, t int) bool {
	return d.gated != nil && d.gated[t]
}

// Tick implements cpu.Policy: refresh classifications and allocation bounds.
// It runs straight after dispatch, which only allocates, so a thread that
// allocated an entry of r this cycle still holds one: occupancy alone
// restarts the activity counters.
func (d *DCRA) Tick(m *cpu.Machine) {
	nt := m.NumThreads()
	if d.activity == nil {
		d.activity = make([][cpu.NumResources]int, nt)
		d.slow = make([]bool, nt)
		d.gated = make([]bool, nt)
		for t := 0; t < nt; t++ {
			for _, r := range cpu.DCRAResources {
				d.activity[t][r] = d.opt.ActivityY
			}
		}
		for _, r := range cpu.DCRAResources {
			if r.IsFP() || d.opt.TrackAllActivity {
				d.tracked = append(d.tracked, r)
			} else {
				d.untracked = append(d.untracked, r)
			}
		}
	}

	// Phase classification (paper §3.1.1) and activity classification
	// (paper §3.1.2) run in a single pass per thread, accumulating the
	// per-resource fast-active / slow-active counts the sharing model needs
	// as they go. Only the tracked resources (FP by default) carry live
	// activity counters; the untracked ones are active for every thread on
	// every cycle, so their counts come from the fast/slow totals alone.
	var fa, sa [cpu.NumResources]int
	nSlow := 0
	for t := 0; t < nt; t++ {
		var slow bool
		if d.opt.ClassifyOnL2 {
			slow = m.PendingL2(t) > 0
		} else {
			slow = m.PendingL1D(t) > 0
		}
		d.slow[t] = slow
		if slow {
			nSlow++
		}
		act := &d.activity[t]
		for _, r := range d.tracked {
			if m.Usage(t, r) > 0 {
				act[r] = d.opt.ActivityY
			} else if act[r] > 0 {
				act[r]--
			}
			if act[r] > 0 {
				if slow {
					sa[r]++
				} else {
					fa[r]++
				}
			}
		}
	}

	if nSlow == 0 {
		// No slow thread anywhere: Eslow is 0 (unbounded) for every resource
		// and nothing gates. Skip the sharing model — the common case
		// whenever no thread has a pending miss.
		d.limits = [cpu.NumResources]int{}
		for t := 0; t < nt; t++ {
			d.gated[t] = false
		}
		return
	}
	for _, r := range d.untracked {
		fa[r], sa[r] = nt-nSlow, nSlow
	}

	// Sharing model (paper §3.2): per-resource E_slow from the counts of
	// fast-active and slow-active threads.
	for _, r := range cpu.DCRAResources {
		factor := d.opt.IQFactor
		if r == cpu.RIntRegs || r == cpu.RFPRegs {
			factor = d.opt.RegFactor
		}
		d.limits[r] = Eslow(m.Total(r), nt, fa[r], sa[r], factor)
	}

	// Gating decision: a slow thread holding more than its bound of any
	// resource it is active for must stop fetching.
	for t := 0; t < nt; t++ {
		d.gated[t] = false
		if !d.slow[t] {
			continue
		}
		for _, r := range cpu.DCRAResources {
			if d.activity[t][r] > 0 && d.limits[r] > 0 && m.Usage(t, r) > d.limits[r] {
				d.gated[t] = true
				break
			}
		}
	}
}

// EnforcesCaps implements cpu.DispatchCapper: unless the dispatch-enforcement
// ablation is on, Cap returns 0 for every (thread, resource) and the machine
// may skip the dispatch-stage cap machinery entirely.
func (d *DCRA) EnforcesCaps() bool { return d.opt.EnforceDispatch }

// Cap implements cpu.Partitioner for the dispatch-enforcement ablation.
func (d *DCRA) Cap(m *cpu.Machine, t int, r cpu.Resource) int {
	if !d.opt.EnforceDispatch || d.gated == nil || r == cpu.RROB {
		return 0
	}
	if !d.slow[t] || d.activity[t][r] == 0 {
		return 0
	}
	return d.limits[r]
}

// Eslow computes the sharing-model bound for one resource: the number of
// entries each slow-active thread may hold, out of R total entries, with
// fa fast-active and sa slow-active competitors and the given sharing
// factor (t is the total thread count, used by the 1/T and 1/(T+4) modes).
// Results are rounded to nearest, matching the paper's Table 1.
//
//	E_slow = R/(fa+sa) * (1 + C*fa),  C = 1/K
//	       = R*(K+fa) / ((fa+sa)*K)
func Eslow(r, t, fa, sa int, factor SharingFactor) int {
	a := fa + sa
	if a == 0 || sa == 0 {
		return 0 // no slow-active thread competes: no bound needed
	}
	var k int
	switch factor {
	case CActive:
		k = a
	case CThreads:
		k = t
	case CThreadsPlus4:
		k = t + 4
	case CZero:
		// C = 0: plain equal share among active threads.
		return roundDiv(r, a)
	}
	return roundDiv(r*(k+fa), a*k)
}

// roundDiv divides with round-to-nearest (ties up).
func roundDiv(num, den int) int {
	return (2*num + den) / (2 * den)
}

// Limits exposes the current per-resource bounds (tests/reports).
func (d *DCRA) Limits() [cpu.NumResources]int { return d.limits }

// IsSlow exposes the phase classification of thread t (tests/reports).
func (d *DCRA) IsSlow(t int) bool { return d.slow != nil && d.slow[t] }

// IsActive exposes the activity classification (tests/reports).
func (d *DCRA) IsActive(t int, r cpu.Resource) bool {
	return d.activity == nil || d.activity[t][r] > 0
}
