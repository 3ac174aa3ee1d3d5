package dcra_test

import (
	"testing"

	"dcra"
)

func TestPublicQuickstart(t *testing.T) {
	cfg := dcra.BaselineConfig()
	m, err := dcra.NewMachine(cfg, []dcra.Profile{
		dcra.MustProfile("mcf"), dcra.MustProfile("gzip"),
	}, dcra.NewDCRA(), 42)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(30_000)
	st := m.Stats()
	if st.TotalCommitted() == 0 {
		t.Fatal("quickstart committed nothing")
	}
	if st.Throughput() <= 0 || st.Throughput() > float64(cfg.IssueWidth) {
		t.Fatalf("implausible throughput %.3f", st.Throughput())
	}
}

func TestNewPolicyAllNames(t *testing.T) {
	cfg := dcra.BaselineConfig()
	for _, name := range dcra.PolicyNames() {
		p, err := dcra.NewPolicy(dcra.PolicyName(name), cfg)
		if err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := dcra.NewPolicy("NOPE", cfg); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestWorkloadsExposed(t *testing.T) {
	if got := len(dcra.AllWorkloads()); got != 36 {
		t.Fatalf("AllWorkloads = %d, want 36", got)
	}
	w, err := dcra.GetWorkload(2, dcra.MEM, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Names[0] != "mcf" {
		t.Fatalf("MEM2.g1 = %v", w.Names)
	}
}

func TestEslowExposed(t *testing.T) {
	// Spot-check the paper's Table 1 through the public API.
	if got := dcra.Eslow(32, 4, 3, 1, 0 /* core.CActive */); got != 14 {
		t.Fatalf("Eslow(32,4,3,1) = %d, want 14", got)
	}
}

func TestRunnerThroughPublicAPI(t *testing.T) {
	r := dcra.NewRunner()
	r.Warmup, r.Measure = 10_000, 30_000
	w, _ := dcra.GetWorkload(2, dcra.MIX, 1)
	cfg := dcra.BaselineConfig()
	res, err := r.RunWorkload(cfg, w, dcra.NewDCRA())
	if err != nil {
		t.Fatal(err)
	}
	if res.Hmean <= 0 || res.Throughput <= 0 {
		t.Fatalf("bad result %+v", res)
	}
}
