package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteCSVs renders the static experiments (no simulation needed) and
// checks the CSV artifacts land where `campaign run -csv` promises them.
func TestWriteCSVs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	s := NewSuite()
	var all []RenderedTable
	for _, key := range []string{"tab1", "tab4"} {
		spec, err := SpecByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := spec.Render(s)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, tables...)
	}
	paths, err := WriteCSVs(dir, all)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(all) {
		t.Fatalf("wrote %d files for %d tables", len(paths), len(all))
	}
	for i, p := range paths {
		if want := filepath.Join(dir, all[i].Name+".csv"); p != want {
			t.Fatalf("path %q, want %q", p, want)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		// Comment title, then a header row, then one line per table row.
		if !strings.HasPrefix(lines[0], "# ") {
			t.Fatalf("%s: missing title comment: %q", p, lines[0])
		}
		header := lines[1]
		if got, want := strings.Count(header, ",")+1, len(all[i].Table.Columns); got != want {
			t.Fatalf("%s: header has %d columns, table has %d", p, got, want)
		}
		body := 0
		for _, l := range lines[2:] {
			if !strings.HasPrefix(l, "#") {
				body++
			}
		}
		if body != len(all[i].Table.Rows) {
			t.Fatalf("%s: %d data lines for %d rows", p, body, len(all[i].Table.Rows))
		}
	}
}
