// Package campaign turns the experiment suite's (config, workload, policy)
// grid into a first-class object: a declarative Sweep enumerates cells with
// stable content-derived keys, and a persistent on-disk Store lets re-runs
// and figure re-renders hit disk instead of resimulating. Spreading a sweep
// across hosts is internal/coord's job: its coordinator leases a sweep's
// cells to workers and writes their results into a Store.
//
// The package is deliberately agnostic about what a cell *means*: a cell is
// (configuration, workload id, policy string) and the experiment layer owns
// the interpretation (multiprogrammed workload ids like "MEM2.g1" under the
// policy names internal/policy spells, or "bench:<name>" single-thread cells
// under the "BASE" and "CAP:<res>:<pct>" protocols of Table 3 and Figure 2).
// That keeps the dependency arrow pointing one way: experiments imports
// campaign, never the reverse.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"dcra/internal/config"
	"dcra/internal/sim"
)

// Cell identifies one simulation: a (config, workload, policy) triple.
// config.Config is a struct of scalars, so Cell is comparable and doubles as
// an in-memory memo key. WID is a workload identifier owned by the experiment
// layer; Pol is a policy name, possibly parameterised (e.g. "CAP:intIQ:37.5").
type Cell struct {
	Cfg config.Config `json:"cfg"`
	WID string        `json:"wid"`
	Pol string        `json:"pol"`

	// Mode selects the execution mode: ModeExact (the empty string, so every
	// pre-existing exact cell keeps its content key) or ModeSampled. Exact
	// and sampled runs of the same triple are distinct cells — the store
	// holds both and renders prefer exact when present.
	Mode string `json:"mode,omitempty"`
}

// Execution modes for Cell.Mode.
const (
	ModeExact   = ""
	ModeSampled = "sampled"
)

// Sampled returns the cell's sampled-mode counterpart.
func (c Cell) Sampled() Cell {
	c.Mode = ModeSampled
	return c
}

// Exact returns the cell's exact-mode counterpart. Exact runs carry no
// sampling schedule, so the schedule is cleared too: the result is the key
// an exact run of the same triple is stored under.
func (c Cell) Exact() Cell {
	c.Mode = ModeExact
	c.Cfg.Sampling = config.SamplingConfig{}
	return c
}

// Key returns the cell's stable content-derived key: a 64-bit hex digest of
// the canonical JSON encoding of the cell. Two processes (or hosts) enumerate
// the same key for the same cell, which is what makes the on-disk store
// addressable without coordination and lets a coordinator check that a
// worker's result answers the cell it leased.
func (c Cell) Key() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(c); err != nil {
		// Cell is a fixed struct of scalars and strings; encoding cannot fail.
		panic(fmt.Sprintf("campaign: encoding cell: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// String renders a short human-readable identity for logs and errors.
func (c Cell) String() string {
	if c.Mode != ModeExact {
		return fmt.Sprintf("%s/%s@%s[%s]", c.WID, c.Pol, c.Mode, c.Key())
	}
	return fmt.Sprintf("%s/%s[%s]", c.WID, c.Pol, c.Key())
}

// Sweep is a declarative enumeration of the cells one experiment needs. The
// experiment layer declares each Figure*/Table* sweep exactly once; prefetch
// submission, rendering, the coordinator and the result store all iterate
// the same enumeration, so a new sweep point cannot silently fall back to
// on-demand serial execution.
type Sweep struct {
	Name  string // experiment key, e.g. "fig5"
	Cells []Cell // enumeration order is the experiment's presentation order
}

// Hash returns a digest of the sweep's content (the sorted cell-key set),
// independent of enumeration order. The coordinator reports it in its
// status and log, and `campaign status` prints it.
func (s Sweep) Hash() string {
	keys := make([]string, len(s.Cells))
	for i, c := range s.Cells {
		keys[i] = c.Key()
	}
	sort.Strings(keys)
	h := sha256.New()
	fmt.Fprintln(h, s.Name)
	for _, k := range keys {
		fmt.Fprintln(h, k)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// CellSet returns the sweep's cells as a set for coverage checks.
func (s Sweep) CellSet() map[Cell]struct{} {
	set := make(map[Cell]struct{}, len(s.Cells))
	for _, c := range s.Cells {
		set[c] = struct{}{}
	}
	return set
}

// Runner evaluates one cell. *experiments.Suite is the canonical
// implementation; the campaign CLI drives sweeps through this interface.
type Runner interface {
	RunCell(Cell) (sim.Result, error)
}
