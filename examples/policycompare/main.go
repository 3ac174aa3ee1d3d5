// Policycompare: run one paper workload under every policy and compare
// throughput and the Hmean throughput-fairness metric — a miniature of the
// paper's Figure 5.
package main

import (
	"fmt"
	"log"
	"os"

	"dcra"
	"dcra/internal/report"
)

func main() {
	cfg := dcra.BaselineConfig()
	w, err := dcra.GetWorkload(4, dcra.MIX, 1) // gzip+twolf+bzip2+mcf
	if err != nil {
		log.Fatal(err)
	}

	r := dcra.NewRunner()
	t := report.NewTable(fmt.Sprintf("Policy comparison on %s %v", w.ID(), w.Names),
		"policy", "throughput", "hmean", "per-thread IPCs")
	for _, name := range dcra.PolicyNames() {
		pol, err := dcra.NewPolicy(dcra.PolicyName(name), cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := r.RunWorkload(cfg, w, pol)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(name, res.Throughput, res.Hmean, fmt.Sprintf("%.2f", res.IPCs))
	}
	t.AddNote("hmean is the harmonic mean of per-thread relative IPCs (Luo et al.)")
	t.Render(os.Stdout)
}
