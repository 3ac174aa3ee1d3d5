// Package dcra is a cycle-level SMT processor simulation library built to
// reproduce "Dynamically Controlled Resource Allocation in SMT Processors"
// (Cazorla, Ramirez, Valero, Fernández — MICRO-37, 2004).
//
// The library bundles:
//
//   - a simulated 8-wide, 12-stage out-of-order SMT core with three shared
//     issue queues, shared physical register files, a reorder buffer, a
//     gshare/BTB/RAS front end and a two-level cache hierarchy;
//   - synthetic SPEC2000-like workloads (statistical instruction streams
//     calibrated against the paper's Table 3);
//   - the DCRA resource allocation policy plus every fetch policy the paper
//     compares against (ICOUNT, STALL, FLUSH, FLUSH++, DG, PDG, SRA), each
//     built by name through NewPolicy; the PolicyName constants are
//     internal/policy's names, and each policy there is ICOUNT plus the one
//     mechanism it adds (a fetch gate, a flush or a resource cap);
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation;
//   - an open-system mode (internal/sched, `smtsim serve`, the "sched"
//     campaign experiment) in which the core serves a seeded stream of
//     arriving jobs — co-scheduled onto hardware contexts via
//     Machine.RebindThread — and the metrics become job throughput,
//     turnaround percentiles and fairness under load; see SCHEDULER.md.
//
// # Quick start
//
//	cfg := dcra.BaselineConfig()
//	m, err := dcra.NewMachine(cfg, []dcra.Profile{
//	    dcra.MustProfile("mcf"), dcra.MustProfile("gzip"),
//	}, dcra.NewDCRA(), 42)
//	if err != nil { ... }
//	m.Run(100_000)
//	fmt.Println(m.Stats())
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// paper-vs-measured record.
package dcra

import (
	"dcra/internal/config"
	"dcra/internal/core"
	"dcra/internal/cpu"
	"dcra/internal/sim"
	"dcra/internal/stats"
	"dcra/internal/trace"
	"dcra/internal/workload"
)

// Config is the simulated processor configuration (paper Table 2).
type Config = config.Config

// BaselineConfig returns the paper's Table 2 baseline.
func BaselineConfig() Config { return config.Baseline() }

// Profile is the statistical model of one benchmark program.
type Profile = trace.Profile

// Benchmarks returns the synthetic SPEC2000 suite keyed by name.
func Benchmarks() map[string]Profile { return trace.Benchmarks() }

// MustProfile returns the named benchmark profile or panics.
func MustProfile(name string) Profile { return trace.MustProfile(name) }

// BenchmarkNames lists the suite in the paper's Table 3 order.
func BenchmarkNames() []string { return trace.Names() }

// Machine is a simulated SMT processor running a fixed set of threads.
type Machine = cpu.Machine

// Policy decides fetch priority, fetch gating and (for allocation policies)
// per-thread resource bounds. See NewDCRA and NewPolicy.
type Policy = cpu.Policy

// Resource enumerates the shared resources allocation policies control.
type Resource = cpu.Resource

// Shared resources (see cpu.Resource).
const (
	IntIQ   = cpu.RIntIQ
	FPIQ    = cpu.RFPIQ
	LSIQ    = cpu.RLSIQ
	IntRegs = cpu.RIntRegs
	FPRegs  = cpu.RFPRegs
	ROB     = cpu.RROB
)

// Stats aggregates one run's statistics.
type Stats = stats.Stats

// NewMachine builds a machine running one synthetic thread per profile
// under the given policy, deterministically seeded.
func NewMachine(cfg Config, profiles []Profile, pol Policy, seed uint64) (*Machine, error) {
	return cpu.New(cfg, profiles, pol, seed)
}

// DCRAOptions configure the DCRA policy (sharing factors, activity
// threshold, ablation switches).
type DCRAOptions = core.Options

// DefaultDCRAOptions returns the paper's baseline DCRA configuration.
func DefaultDCRAOptions() DCRAOptions { return core.DefaultOptions() }

// DCRAOptionsForLatency returns the paper's latency-tuned sharing factors.
func DCRAOptionsForLatency(memLatency int) DCRAOptions {
	return core.OptionsForLatency(memLatency)
}

// NewDCRA returns the paper's Dynamically Controlled Resource Allocation
// policy with baseline options.
func NewDCRA() *core.DCRA { return core.Default() }

// NewDCRAWithOptions returns DCRA with explicit options.
func NewDCRAWithOptions(o DCRAOptions) *core.DCRA { return core.New(o) }

// Eslow computes the DCRA sharing-model bound (paper equation 3 / Table 1):
// the entries of an R-entry resource each slow-active thread may hold given
// fa fast-active and sa slow-active competitors on a t-context processor.
func Eslow(r, t, fa, sa int, factor core.SharingFactor) int {
	return core.Eslow(r, t, fa, sa, factor)
}

// Workload is one multiprogrammed benchmark combination (paper Table 4).
type Workload = workload.Workload

// WorkloadKind is the paper's workload taxonomy (ILP / MIX / MEM).
type WorkloadKind = workload.Kind

// Workload kinds.
const (
	ILP = workload.ILP
	MIX = workload.MIX
	MEM = workload.MEM
)

// AllWorkloads returns the paper's 36 Table 4 workloads.
func AllWorkloads() []Workload { return workload.All() }

// GetWorkload returns the Table 4 workload for (threads, kind, group 1-4).
func GetWorkload(threads int, kind WorkloadKind, group int) (Workload, error) {
	return workload.Get(threads, kind, group)
}

// Runner executes warmup+measure simulations and caches single-thread
// baselines for the Hmean metric.
type Runner = sim.Runner

// Result summarises one workload run (per-thread IPCs, throughput, Hmean).
type Result = sim.Result

// NewRunner returns a Runner with the default measurement windows.
func NewRunner() *Runner { return sim.NewRunner() }
