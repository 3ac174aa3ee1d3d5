package coord_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/coord"
)

// FuzzComplete feeds arbitrary completion bodies, decoded as the HTTP
// handler decodes them, to a fresh coordinator. Complete must not panic. A
// refused completion must leave the store's cells directory and the done
// count as they were. An accepted one carried exactly one cell, that cell
// is done, and Store.Get serves the result the payload carried: what
// Complete accepts, a render can read back. With reseal set the payload is
// resealed with PayloadSum, so mutated results get past the digest to the
// checks behind it.
//
// The sweep is the two real cells whose files internal/campaign/testdata
// holds: Table 3's gzip cell and Figure 5's MIX2.g1/DCRA cell, both at
// -warmup 5000 -measure 20000. The seeds are a sealed payload carrying the
// gzip cell, the same payload under a wrong digest, a cell outside the
// sweep, a result with "IPCs": [], a truncated body, and sealed payloads
// carrying no cell and both cells.
func FuzzComplete(f *testing.F) {
	var sweep campaign.Sweep
	var crs []campaign.CellResult
	for _, name := range []string{"bench_gzip_BASE.json", "MIX2.g1_DCRA.json"} {
		data, err := os.ReadFile(filepath.Join("..", "campaign", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		var cr campaign.CellResult
		if err := json.Unmarshal(data, &cr); err != nil {
			f.Fatal(err)
		}
		crs = append(crs, cr)
		sweep.Cells = append(sweep.Cells, cr.Cell)
	}
	body := func(sum string, cells ...campaign.CellResult) []byte {
		data, err := json.Marshal(coord.CompleteRequest{Worker: "w", Cells: cells, Sum: sum})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	sealed := func(cells ...campaign.CellResult) []byte { return body(coord.PayloadSum(cells), cells...) }
	gzip := crs[0]
	foreign := gzip
	foreign.Cell.WID = "bench:foreign"
	foreign.Key = foreign.Cell.Key()
	noIPCs := gzip
	noIPCs.Result.IPCs = []float64{}
	valid := sealed(gzip)
	f.Add(valid, false)
	f.Add(body(strings.Repeat("0", 32), gzip), false)
	f.Add(sealed(foreign), false)
	f.Add(sealed(noIPCs), false)
	f.Add(valid[:len(valid)/2], false)
	f.Add(sealed(), false)
	f.Add(sealed(crs...), false)

	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		var req coord.CompleteRequest
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return
		}
		if reseal {
			req.Sum = coord.PayloadSum(req.Cells)
		}
		dir := t.TempDir()
		st, err := campaign.Open(dir, campaign.Params{})
		if err != nil {
			t.Fatal(err)
		}
		co, err := coord.New("fuzz", sweep, st, coord.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cellDir := filepath.Join(dir, "cells")
		files, done := dirNames(t, cellDir), co.Status().Done

		if resp := co.Complete(req); !resp.OK {
			if got := dirNames(t, cellDir); !slices.Equal(got, files) {
				t.Fatalf("refused completion (%s) changed the cells directory: %v, was %v", resp.Reason, got, files)
			}
			if got := co.Status().Done; got != done {
				t.Fatalf("refused completion (%s) moved Done from %d to %d", resp.Reason, done, got)
			}
			return
		}
		if len(req.Cells) != 1 {
			t.Fatalf("accepted a completion carrying %d cells", len(req.Cells))
		}
		cr := req.Cells[0]
		if slices.Contains(co.Missing(), cr.Cell) {
			t.Fatalf("accepted cell %s is not done", cr.Cell)
		}
		r, ok, err := st.Get(cr.Cell)
		if err != nil || !ok {
			t.Fatalf("Get of accepted cell %s: ok %v, err %v", cr.Cell, ok, err)
		}
		if !reflect.DeepEqual(r, cr.Result) {
			t.Fatalf("Get of accepted cell %s serves %+v, payload carried %+v", cr.Cell, r, cr.Result)
		}
	})
}

// FuzzLeaseSequence decodes each input byte into one call by one of three
// workers on a fresh coordinator over a 4-cell sweep: a Lease, a Heartbeat
// or Fail of the worker's latest lease, or a Complete under it carrying
// that lease's cell, another cell, or no cell. A worker with no lease yet
// calls with an empty lease ID and its own index's cell. The lease TTL and
// straggler threshold are an hour and the backoff a nanosecond, so no timer
// decides anything. After every call: Status splits the sweep into done,
// exhausted, leased and pending cells; Done and Retries never fall; Missing
// lists Total-Done cells; no grant is of a done or exhausted cell, and no
// cell is granted more than RetryBudget times; and a lease request is
// answered StateDone only once every cell is done or exhausted.
func FuzzLeaseSequence(f *testing.F) {
	const workers, budget = 3, 3
	sweep := chaosSweep(4)
	f.Add([]byte{0, 3, 6, 9, 12, 15, 1, 4, 7, 10, 13, 16, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		st, err := campaign.Open(t.TempDir(), chaosParams)
		if err != nil {
			t.Fatal(err)
		}
		co, err := coord.New("chaos", sweep, st, coord.Options{
			LeaseTTL:       time.Hour,
			SpeculateAfter: time.Hour,
			BackoffBase:    time.Nanosecond,
			BackoffMax:     time.Nanosecond,
			RetryBudget:    budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		var latest [workers]*coord.Grant
		granted := make(map[campaign.Cell]int)
		var last coord.StatusResponse
		for n, op := range ops {
			w := int(op) % workers
			worker := fmt.Sprintf("w%d", w)
			leaseID, own := "", w
			if g := latest[w]; g != nil {
				leaseID, own = g.LeaseID, slices.Index(sweep.Cells, g.Cell)
			}
			complete := func(cells ...campaign.CellResult) {
				co.Complete(coord.CompleteRequest{Worker: worker, LeaseID: leaseID, Cells: cells, Sum: coord.PayloadSum(cells)})
			}
			result := func(i int) campaign.CellResult {
				c := sweep.Cells[i%len(sweep.Cells)]
				return campaign.CellResult{Key: c.Key(), Cell: c, Result: chaosResult(c)}
			}
			var resp coord.LeaseResponse
			call := [...]string{"lease", "heartbeat", "fail", "complete own", "complete other", "complete empty"}[op/workers%6]
			switch call {
			case "lease":
				resp = co.Lease(coord.LeaseRequest{Worker: worker})
			case "heartbeat":
				co.Heartbeat(coord.HeartbeatRequest{Worker: worker, LeaseID: leaseID})
			case "fail":
				co.Fail(coord.FailRequest{Worker: worker, LeaseID: leaseID, Reason: "fuzz"})
			case "complete own":
				complete(result(own))
			case "complete other":
				complete(result(own + 1))
			case "complete empty":
				complete()
			}

			s := co.Status()
			// Formatted only on failure: formatting the status on every
			// call would slow the fuzzer several times over.
			fatalf := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("call %d (%s %s): %s\nstatus: %+v", n, worker, call, fmt.Sprintf(format, args...), s)
			}
			if s.Done+s.Exhausted+s.Leased+s.Pending != s.Total {
				fatalf("done, exhausted, leased and pending do not sum to the total")
			}
			if s.Done < last.Done || s.Retries < last.Retries {
				fatalf("Done or Retries fell from %+v", last)
			}
			if m := len(co.Missing()); m != s.Total-s.Done {
				fatalf("Missing lists %d cells", m)
			}
			if resp.State == coord.StateDone && s.Done+s.Exhausted != s.Total {
				fatalf("answered %s with cells left to compute", resp.State)
			}
			if g := resp.Grant; g != nil {
				latest[w] = g
				granted[g.Cell]++
				if !slices.Contains(co.Missing(), g.Cell) || slices.Contains(s.MissingKeys, g.Cell.Key()) {
					fatalf("granted %s, which is done or exhausted", g.Cell)
				}
				if granted[g.Cell] > budget {
					fatalf("cell %s granted %d times, budget %d", g.Cell, granted[g.Cell], budget)
				}
			}
			last = s
		}
	})
}

// dirNames lists the names in directory dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}
