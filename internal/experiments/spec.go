package experiments

import (
	"fmt"
	"strings"

	"dcra/internal/campaign"
	"dcra/internal/report"
	"dcra/internal/trace"
	"dcra/internal/workload"
)

// RenderedTable is one named output table of an experiment; the name keys
// CSV files and artifact paths.
type RenderedTable struct {
	Name  string
	Table *report.Table
}

// Spec describes one experiment of the paper's evaluation: a stable key, a
// declarative sweep enumerating every simulation cell the experiment needs,
// and a render function that consumes exactly those cells from the suite.
// The sweep is the single source of truth — prefetch submission, the
// coordinator's leases, store status and the render loop all iterate it —
// so a new sweep point cannot silently fall back to serial on-demand
// execution (enforced by the sweep-parity tests).
type Spec struct {
	Key    string // CLI selector, e.g. "fig5"
	Title  string
	Sweep  func() campaign.Sweep
	Render func(s *Suite) ([]RenderedTable, error)
}

// Specs returns every experiment in the paper's presentation order.
func Specs() []Spec {
	return []Spec{
		{
			Key: "tab1", Title: "Table 1: E_slow sharing model",
			Sweep: func() campaign.Sweep { return campaign.Sweep{Name: "tab1"} },
			Render: func(s *Suite) ([]RenderedTable, error) {
				return []RenderedTable{{"table1", Table1Report()}}, nil
			},
		},
		{
			Key: "tab4", Title: "Table 4: workloads",
			Sweep: func() campaign.Sweep { return campaign.Sweep{Name: "tab4"} },
			Render: func(s *Suite) ([]RenderedTable, error) {
				return []RenderedTable{{"table4", Table4Report()}}, nil
			},
		},
		{
			Key: "tab3", Title: "Table 3: benchmark cache behaviour",
			Sweep: func() campaign.Sweep { return Table3Sweep(nil) },
			Render: func(s *Suite) ([]RenderedTable, error) {
				rows, err := Table3(s, nil)
				if err != nil {
					return nil, err
				}
				return []RenderedTable{{"table3", Table3Report(rows)}}, nil
			},
		},
		{
			Key: "fig2", Title: "Figure 2: resource restriction curves",
			Sweep: func() campaign.Sweep { return Figure2Sweep(nil) },
			Render: func(s *Suite) ([]RenderedTable, error) {
				f2, err := Figure2(s, nil)
				if err != nil {
					return nil, err
				}
				return []RenderedTable{{"figure2", f2.Report()}}, nil
			},
		},
		{
			Key: "tab5", Title: "Table 5: DCRA phase distribution",
			Sweep: Table5Sweep,
			Render: func(s *Suite) ([]RenderedTable, error) {
				rows, err := Table5(s)
				if err != nil {
					return nil, err
				}
				return []RenderedTable{{"table5", Table5Report(rows)}}, nil
			},
		},
		{
			Key: "fig4", Title: "Figure 4: DCRA vs SRA",
			Sweep: Figure4Sweep,
			Render: func(s *Suite) ([]RenderedTable, error) {
				f4, err := Figure4(s)
				if err != nil {
					return nil, err
				}
				return []RenderedTable{{"figure4", f4.Report()}}, nil
			},
		},
		{
			Key: "fig5", Title: "Figure 5: throughput and Hmean per policy",
			Sweep: Figure5Sweep,
			Render: func(s *Suite) ([]RenderedTable, error) {
				f5, err := Figure5(s)
				if err != nil {
					return nil, err
				}
				return []RenderedTable{
					{"figure5a", f5.ThroughputReport()},
					{"figure5b", f5.HmeanReport()},
				}, nil
			},
		},
		{
			Key: "fig6", Title: "Figure 6: register-pool sweep",
			Sweep: Figure6Sweep,
			Render: func(s *Suite) ([]RenderedTable, error) {
				f6, err := Figure6(s)
				if err != nil {
					return nil, err
				}
				return []RenderedTable{{"figure6", f6.Report()}}, nil
			},
		},
		{
			Key: "fig7", Title: "Figure 7: memory-latency sweep",
			Sweep: Figure7Sweep,
			Render: func(s *Suite) ([]RenderedTable, error) {
				f7, err := Figure7(s)
				if err != nil {
					return nil, err
				}
				return []RenderedTable{{"figure7", f7.Report()}}, nil
			},
		},
		{
			Key: "activity", Title: "Front-end activity: FLUSH++ re-fetch overhead",
			Sweep: ActivitySweep,
			Render: func(s *Suite) ([]RenderedTable, error) {
				var rows []ActivityResult
				for _, lat := range ActivityLatencies {
					r, err := FrontEndActivity(s, lat)
					if err != nil {
						return nil, err
					}
					rows = append(rows, r)
				}
				return []RenderedTable{{"activity", ActivityReport(rows)}}, nil
			},
		},
		{
			Key: "mlp", Title: "Memory-level parallelism: DCRA vs FLUSH++",
			Sweep: MLPSweep,
			Render: func(s *Suite) ([]RenderedTable, error) {
				rows, err := MemoryParallelism(s)
				if err != nil {
					return nil, err
				}
				return []RenderedTable{{"mlp", MLPReport(rows)}}, nil
			},
		},
		{
			Key: "sched", Title: "Open-system scheduler: throughput, tail latency, fairness",
			Sweep: SchedSweep,
			Render: func(s *Suite) ([]RenderedTable, error) {
				tbl, err := SchedTable(s)
				if err != nil {
					return nil, err
				}
				return []RenderedTable{{"sched", tbl}}, nil
			},
		},
	}
}

// SpecByKey returns the experiment with the given CLI key.
func SpecByKey(key string) (Spec, error) {
	var keys []string
	for _, sp := range Specs() {
		if sp.Key == key {
			return sp, nil
		}
		keys = append(keys, sp.Key)
	}
	return Spec{}, fmt.Errorf("experiments: unknown experiment %q (have %s)", key, strings.Join(keys, ","))
}

// Table4Report renders the encoded workload table (static data).
func Table4Report() *report.Table {
	t := report.NewTable("Table 4: workloads (encoded verbatim from the paper)",
		"id", "benchmarks", "types")
	for _, w := range workload.All() {
		types := make([]string, len(w.Names))
		for i, n := range w.Names {
			types[i] = trace.MustProfile(n).Type()
		}
		t.AddRow(w.ID(), strings.Join(w.Names, "+"), strings.Join(types, "+"))
	}
	return t
}
