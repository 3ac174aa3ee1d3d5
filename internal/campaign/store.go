package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"dcra/internal/obs"
	"dcra/internal/sim"
)

// Params pins the simulation protocol a store's results were measured under.
// Cell keys cover the processor configuration but not the measurement
// windows or seed, so the store records them in a manifest and refuses to
// mix results from different protocols.
type Params struct {
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
	Seed    uint64 `json:"seed"`
}

// CellResult pairs a cell with its result: the schema of a store's cell
// files and of the results a coordinated worker streams home.
type CellResult struct {
	Key    string     `json:"key"`
	Cell   Cell       `json:"cell"`
	Result sim.Result `json:"result"`
}

// manifest is the store's on-disk self-description.
type manifest struct {
	Version int    `json:"version"`
	Params  Params `json:"params"`
}

const storeVersion = 1

// Store is a persistent on-disk result store: one JSON file per cell, named
// by the cell's content key, written atomically (temp file + rename) so
// concurrent writers — including unrelated processes sharing the directory —
// never expose a torn cell.
type Store struct {
	dir         string
	params      Params
	quarantined atomic.Int64

	o storeObs
}

// storeObs holds the store's pre-resolved instruments; the zero value
// (nil counters) is the disabled state.
type storeObs struct {
	puts, getHits, getMisses, quarantines *obs.Counter
}

// SetObs resolves the store's telemetry counters from reg; never
// calling it (or passing nil) leaves the store uninstrumented.
func (st *Store) SetObs(reg *obs.Registry) {
	st.o = storeObs{
		puts:        reg.Counter("store.puts"),
		getHits:     reg.Counter("store.get.hits"),
		getMisses:   reg.Counter("store.get.misses"),
		quarantines: reg.Counter("store.quarantines"),
	}
}

// Open opens (or initialises) the store at dir for the given protocol
// params. An existing store with different params is refused: its results
// were measured under another protocol and would merge wrong numbers into
// right-looking tables.
func Open(dir string, p Params) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "cells"), 0o755); err != nil {
		return nil, fmt.Errorf("campaign: opening store: %w", err)
	}
	mpath := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(mpath)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		m := manifest{Version: storeVersion, Params: p}
		if err := writeFileAtomic(mpath, mustJSON(m)); err != nil {
			return nil, fmt.Errorf("campaign: writing store manifest: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("campaign: reading store manifest: %w", err)
	default:
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("campaign: parsing store manifest: %w", err)
		}
		if m.Version != storeVersion {
			return nil, fmt.Errorf("campaign: store %s has version %d, this binary speaks %d", dir, m.Version, storeVersion)
		}
		if m.Params != p {
			return nil, fmt.Errorf("campaign: store %s was measured with %+v, asked to open with %+v", dir, m.Params, p)
		}
	}
	return &Store{dir: dir, params: p}, nil
}

// OpenExisting opens a store that must already have a manifest, adopting its
// recorded params (used by `campaign status`, which has no protocol flags).
func OpenExisting(dir string) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("campaign: store %s has no manifest: %w", dir, err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("campaign: parsing store manifest: %w", err)
	}
	return Open(dir, m.Params)
}

// Params returns the protocol the store's results were measured under.
func (st *Store) Params() Params { return st.params }

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) cellPath(key string) string {
	return filepath.Join(st.dir, "cells", key+".json")
}

// preferred returns the cell whose stored result renders use instead of c's
// own when the store holds it, and whether c has one. Renders prefer exact:
// a sampled cell is an approximation of its exact counterpart's result.
func preferred(c Cell) (Cell, bool) {
	return c.Exact(), c.Mode == ModeSampled
}

// Get returns the stored result renders use for c, reporting whether the
// store holds one: for a sampled cell its exact counterpart's result when
// that is stored (preferred), otherwise c's own.
func (st *Store) Get(c Cell) (sim.Result, bool, error) {
	if e, ok := preferred(c); ok {
		if r, ok, err := st.get(e); err != nil || ok {
			return r, ok, err
		}
	}
	return st.get(c)
}

// get reads c's own cell file. A corrupt cell file — truncated or garbled
// JSON (a crashed disk, a torn copy), a file holding a different cell (key
// collision, hand-edit), or a result renders cannot read (CheckResult) — is
// quarantined to <key>.corrupt and reported as a miss, so one bad file
// costs one resimulation instead of failing the whole render.
func (st *Store) get(c Cell) (sim.Result, bool, error) {
	key := c.Key()
	data, err := os.ReadFile(st.cellPath(key))
	if errors.Is(err, fs.ErrNotExist) {
		st.o.getMisses.Inc()
		return sim.Result{}, false, nil
	}
	if err != nil {
		return sim.Result{}, false, fmt.Errorf("campaign: reading cell %s: %w", c, err)
	}
	var sc CellResult
	if err := json.Unmarshal(data, &sc); err != nil {
		return sim.Result{}, false, st.quarantine(key, fmt.Sprintf("parsing cell %s: %v", c, err))
	}
	if sc.Cell != c {
		return sim.Result{}, false, st.quarantine(key, fmt.Sprintf("cell file %s holds %s, wanted %s", key, sc.Cell, c))
	}
	if err := CheckResult(sc.Result); err != nil {
		return sim.Result{}, false, st.quarantine(key, fmt.Sprintf("cell %s: %v", c, err))
	}
	st.o.getHits.Inc()
	return sc.Result, true, nil
}

// CheckResult reports why r is not a result renders can read, or nil. A
// result must carry statistics, and its workload's thread count, its
// per-thread statistics and its per-thread IPCs must be nonzero and agree.
// A sched: trial (Sched set) reports no per-thread IPCs, so for it only the
// first two count.
func CheckResult(r sim.Result) error {
	if r.Stats == nil {
		return errors.New("result has no statistics")
	}
	n := r.Workload.Threads
	if n <= 0 || len(r.Stats.Threads) != n || (r.Sched == nil && len(r.IPCs) != n) {
		return fmt.Errorf("result has %d workload threads, %d thread statistics and %d IPCs",
			n, len(r.Stats.Threads), len(r.IPCs))
	}
	return nil
}

// quarantine moves a corrupt cell file aside (its .corrupt twin no longer
// matches *.json, so Get and Keys miss it and the next Put heals the slot)
// and counts the event. The returned error is nil unless the rename itself
// failed — a miss, not a fatal condition.
func (st *Store) quarantine(key, reason string) error {
	if err := os.Rename(st.cellPath(key), filepath.Join(st.dir, "cells", key+".corrupt")); err != nil {
		return fmt.Errorf("campaign: quarantining corrupt cell %s (%s): %w", key, reason, err)
	}
	st.quarantined.Add(1)
	st.o.quarantines.Inc()
	return nil
}

// Quarantined returns how many corrupt cell files this store has moved
// aside since opening.
func (st *Store) Quarantined() int64 { return st.quarantined.Load() }

// CorruptCount counts the .corrupt files currently parked in the cells
// directory — the durable record of every quarantine ever performed on
// this store, by any process. Quarantined() only sees this process's.
func (st *Store) CorruptCount() (int, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "cells"))
	if err != nil {
		return 0, fmt.Errorf("campaign: listing store cells: %w", err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".corrupt") {
			n++
		}
	}
	return n, nil
}

// Put stores the result for c atomically, overwriting any previous value.
// Cell files hold a CellResult: the full cell identity rides along so Get
// can verify the file answers the question asked (key collisions,
// hand-edited files) and the files are self-describing.
func (st *Store) Put(c Cell, r sim.Result) error {
	sc := CellResult{Key: c.Key(), Cell: c, Result: r}
	if err := writeFileAtomic(st.cellPath(sc.Key), mustJSON(sc)); err != nil {
		return fmt.Errorf("campaign: writing cell %s: %w", c, err)
	}
	st.o.puts.Inc()
	return nil
}

// Count returns how many of the sweep's distinct cells the store holds,
// alongside the cells still missing (in sweep enumeration order). A cell
// counts as held only when Get hits: like a render, Count quarantines a cell
// file it cannot read and counts the cell missing.
func (st *Store) Count(s Sweep) (present int, missing []Cell) {
	seen := make(map[Cell]struct{}, len(s.Cells))
	for _, c := range s.Cells {
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		if _, ok, err := st.Get(c); ok && err == nil {
			present++
		} else {
			missing = append(missing, c)
		}
	}
	return present, missing
}

// Keys lists the cell keys currently present in the store, in directory
// order (unspecified).
func (st *Store) Keys() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "cells"))
	if err != nil {
		return nil, fmt.Errorf("campaign: listing store cells: %w", err)
	}
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, ".json"))
	}
	return keys, nil
}

// GC deletes every stored cell whose key is not in keep, returning the keys
// it removed (sorted). With dryRun set it only reports what it would delete.
// Sweeps evolve — a spec change re-keys its cells — and the store otherwise
// accretes orphans forever; the campaign CLI builds keep from every
// registered sweep's enumeration.
func (st *Store) GC(keep map[string]bool, dryRun bool) ([]string, error) {
	keys, err := st.Keys()
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, key := range keys {
		if keep[key] {
			continue
		}
		if !dryRun {
			if err := os.Remove(st.cellPath(key)); err != nil {
				return removed, fmt.Errorf("campaign: removing stale cell %s: %w", key, err)
			}
		}
		removed = append(removed, key)
	}
	sort.Strings(removed)
	return removed, nil
}

// mustJSON marshals v with indentation; the schemas here cannot fail.
func mustJSON(v any) []byte {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("campaign: marshalling %T: %v", v, err))
	}
	return append(data, '\n')
}

// writeFileAtomic writes data to path via a temp file and rename, so readers
// (and crashed writers) never observe a partial file. path's directory must
// exist.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
