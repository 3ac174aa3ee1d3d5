package coord_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dcra/internal/campaign"
	"dcra/internal/coord"
)

// FuzzComplete feeds arbitrary completion bodies, decoded as the HTTP
// handler decodes them, to a fresh coordinator. Complete must not panic. A
// refused completion must leave the store's cells directory and the done
// count as they were. After an accepted one every cell it carried is done,
// and Store.Get serves the first result the payload carried for it: what
// Complete accepts, a render can read back. With reseal set the payload is
// resealed with PayloadSum, so mutated results get past the digest to the
// checks behind it.
//
// The sweep is the two real cells whose files internal/campaign/testdata
// holds: Table 3's gzip cell and Figure 5's MIX2.g1/DCRA cell, both at
// -warmup 5000 -measure 20000. The seeds are a sealed payload carrying the
// gzip cell, the same payload under a wrong digest, a cell outside the
// sweep, a result with "IPCs": [], and a truncated body.
func FuzzComplete(f *testing.F) {
	var sweep campaign.Sweep
	var gzip campaign.CellResult
	for _, name := range []string{"bench_gzip_BASE.json", "MIX2.g1_DCRA.json"} {
		data, err := os.ReadFile(filepath.Join("..", "campaign", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		var cr campaign.CellResult
		if err := json.Unmarshal(data, &cr); err != nil {
			f.Fatal(err)
		}
		if sweep.Cells == nil {
			gzip = cr
		}
		sweep.Cells = append(sweep.Cells, cr.Cell)
	}
	body := func(sum string, cells ...campaign.CellResult) []byte {
		data, err := json.Marshal(coord.CompleteRequest{Worker: "w", Cells: cells, Sum: sum})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	sealed := func(cr campaign.CellResult) []byte { return body(coord.PayloadSum([]campaign.CellResult{cr}), cr) }
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
		files, done := dirNames(t, dir), co.Status().Done

		if resp := co.Complete(req); !resp.OK {
			if got := dirNames(t, dir); !slices.Equal(got, files) {
				t.Fatalf("refused completion (%s) changed the cells directory: %v, was %v", resp.Reason, got, files)
			}
			if got := co.Status().Done; got != done {
				t.Fatalf("refused completion (%s) moved Done from %d to %d", resp.Reason, done, got)
			}
			return
		}
		missing := co.Missing()
		first := make(map[campaign.Cell]bool)
		for _, cr := range req.Cells {
			if first[cr.Cell] {
				continue
			}
			first[cr.Cell] = true
			if slices.Contains(missing, cr.Cell) {
				t.Fatalf("accepted cell %s is not done", cr.Cell)
			}
			r, ok, err := st.Get(cr.Cell)
			if err != nil || !ok {
				t.Fatalf("Get of accepted cell %s: ok %v, err %v", cr.Cell, ok, err)
			}
			if !reflect.DeepEqual(r, cr.Result) {
				t.Fatalf("Get of accepted cell %s serves %+v, payload carried %+v", cr.Cell, r, cr.Result)
			}
		}
	})
}

// dirNames lists the names in a store's cells directory.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "cells"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}
