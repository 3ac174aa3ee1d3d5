package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// WriteCSVs writes each rendered table as <dir>/<name>.csv, creating dir if
// needed, and returns the paths written. `campaign run` uses it to drop
// machine-readable artifacts next to the result store (<store>/csv).
func WriteCSVs(dir string, tables []RenderedTable) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: creating CSV dir: %w", err)
	}
	paths := make([]string, 0, len(tables))
	for _, rt := range tables {
		var b strings.Builder
		rt.Table.RenderCSV(&b)
		path := filepath.Join(dir, rt.Name+".csv")
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			return paths, fmt.Errorf("experiments: writing %s: %w", path, err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}
