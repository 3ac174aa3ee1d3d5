// Command experiments regenerates the paper's tables and figures (see
// EXPERIMENTS.md for the experiment index and recorded results). Every
// experiment is driven through its declared campaign sweep, and all the
// selected experiments share one suite, so cells common to several figures
// run once. For persistent result stores and multi-host runs use
// cmd/campaign instead.
//
// Usage:
//
//	experiments               # everything, full windows (minutes)
//	experiments -quick        # everything, reduced windows
//	experiments -only fig4,tab1
//	experiments -csv out/     # additionally write CSV files
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dcra/internal/experiments"
)

func main() {
	var (
		quick  = flag.Bool("quick", false, "reduced measurement windows (~6x faster)")
		only   = flag.String("only", "", "comma list of: tab1,fig2,tab3,tab4,tab5,fig4,fig5,fig6,fig7,activity,mlp")
		csvDir = flag.String("csv", "", "directory to additionally write CSV files into")
	)
	flag.Parse()

	s := experiments.NewSuite()
	if *quick {
		s = experiments.NewQuickSuite()
	}

	specs := experiments.Specs()
	want := map[string]bool{}
	if *only != "" {
		known := map[string]bool{}
		for _, spec := range specs {
			known[spec.Key] = true
		}
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if !known[k] {
				fatal(fmt.Errorf("unknown experiment %q in -only", k))
			}
			want[k] = true
		}
	}

	for _, spec := range specs {
		if len(want) > 0 && !want[spec.Key] {
			continue
		}
		tables, err := spec.Render(s)
		if err != nil {
			fatal(err)
		}
		for _, rt := range tables {
			rt.Table.Render(os.Stdout)
		}
		if *csvDir != "" {
			if _, err := experiments.WriteCSVs(*csvDir, tables); err != nil {
				fatal(err)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
