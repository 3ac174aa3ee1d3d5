package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// golden holds the default seed's expected outputs: DCRA's Figure 5 Hmean
// gains exactly as BENCH_PR9.json records them, and the digests of each
// workload's rendered tables and per-cell results.
type golden struct {
	Seed       uint64                       `json:"seed"`
	HmeanGains map[string]string            `json:"hmean_gains"`
	Digests    map[string]map[string]string `json:"digests"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("parsing golden.json: %w", err)
	}
	return g, nil
}

// check compares a workload's pass on the golden seed with the golden
// outputs; other seeds pass trivially. Gains compare as their shortest
// round-trip decimal, so a one-ulp change fails.
func (g golden) check(workload string, seed uint64, p *pass) error {
	if seed != g.Seed {
		return nil
	}
	if workload != "sampled" {
		for pol, want := range g.HmeanGains {
			if got := strconv.FormatFloat(p.gains[pol], 'g', -1, 64); got != want {
				return fmt.Errorf("Figure 5 Hmean gain over %s is %s, golden %s", pol, got, want)
			}
		}
	}
	return sameDigests("golden", g.Digests[workload], p.digests)
}

// sameDigests fails when a digest present in both maps differs.
func sameDigests(what string, want, got map[string]string) error {
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if g, ok := got[name]; ok && g != want[name] {
			return fmt.Errorf("%s digest mismatch: %s is %.12s, expected %.12s", what, name, g, want[name])
		}
	}
	return nil
}

// record is what a run keeps for later runs of the same build and seed:
// its digests, so that every run of a workload can be checked to produce
// the same ones, and its Figure 5 cell values, the exact reference of the
// campaign check and the parity metrics.
type record struct {
	Digests map[string]string `json:"digests"`
	Cells   []cellValue       `json:"cells"`
}

// records is the per-build store of records, keyed by the benchmark
// binary's own digest so that a rebuilt program never meets another
// build's numbers.
type records struct {
	dir      string
	readOnly bool // compare with earlier runs but record nothing
}

func openRecords() (records, error) {
	exe, err := os.Executable()
	if err != nil {
		return records{}, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return records{}, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return records{}, err
	}
	return records{dir: scratchDir("records", hex.EncodeToString(h.Sum(nil))[:16])}, nil
}

func (rs records) path(workload string, seed uint64) string {
	return filepath.Join(rs.dir, fmt.Sprintf("%s-%d.json", workload, seed))
}

// load returns the record of (workload, seed), or nil when none exists.
func (rs records) load(workload string, seed uint64) (*record, error) {
	data, err := os.ReadFile(rs.path(workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", rs.path(workload, seed), err)
	}
	return &r, nil
}

// save writes a record atomically.
func (rs records) save(workload string, seed uint64, r *record) error {
	if rs.readOnly {
		return nil
	}
	if err := os.MkdirAll(rs.dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(rs.dir, ".record-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), rs.path(workload, seed))
}

// matchOrSave checks a pass against the record of an earlier run of the
// same build, workload and seed, or records it when it is the first.
func (rs records) matchOrSave(workload string, seed uint64, p *pass) error {
	prev, err := rs.load(workload, seed)
	if err != nil {
		return err
	}
	if prev != nil {
		return sameDigests("earlier run's", prev.Digests, p.digests)
	}
	return rs.save(workload, seed, &record{Digests: p.digests, Cells: p.cells})
}

// parity compares sampled Figure 5 throughputs with exact ones of the same
// seed: the share within the sampled cell's own 99.7% CI and the mean
// absolute difference.
type parity struct {
	withinFrac, meanAbsErr float64
}

func computeParity(exact, sampled []cellValue) (parity, error) {
	if len(exact) != len(sampled) || len(exact) == 0 {
		return parity{}, fmt.Errorf("parity: %d exact cells against %d sampled", len(exact), len(sampled))
	}
	var within int
	var sum float64
	for i := range exact {
		d := math.Abs(sampled[i].Throughput - exact[i].Throughput)
		if d <= sampled[i].CI {
			within++
		}
		sum += d
	}
	n := float64(len(exact))
	return parity{withinFrac: float64(within) / n, meanAbsErr: sum / n}, nil
}
