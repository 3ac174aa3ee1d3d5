package sim

import (
	"testing"

	"dcra/internal/config"
	"dcra/internal/cpu"
	"dcra/internal/policy"
	"dcra/internal/trace"
	"dcra/internal/workload"
)

func quickRunner() *Runner {
	r := NewRunner()
	r.Warmup = 10_000
	r.Measure = 40_000
	return r
}

func TestRunWorkloadProducesMetrics(t *testing.T) {
	r := quickRunner()
	w, err := workload.Get(2, workload.MIX, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunWorkload(config.Baseline(), w, policy.NewICount())
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "ICOUNT" || res.Workload.ID() != w.ID() {
		t.Fatalf("result identity wrong: %+v", res)
	}
	if len(res.IPCs) != 2 {
		t.Fatalf("want 2 per-thread IPCs, got %d", len(res.IPCs))
	}
	if res.Throughput <= 0 || res.Hmean <= 0 || res.WSpeedup <= 0 {
		t.Fatalf("metrics must be positive: %+v", res)
	}
	if res.Hmean > 1.05 {
		t.Fatalf("Hmean %f > 1: threads cannot beat their single-thread IPC", res.Hmean)
	}
}

func TestSingleIPCCached(t *testing.T) {
	r := quickRunner()
	cfg := config.Baseline()
	a, err := r.SingleIPC(cfg, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.SingleIPC(cfg, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("cache miss: %v != %v", a, b)
	}
	// A different configuration must not share the cache entry.
	c, err := r.SingleIPC(cfg.WithMemLatency(500, 25), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Log("note: different config returned identical IPC (possible but unlikely)")
	}
}

func TestCapPolicyRestricts(t *testing.T) {
	r := quickRunner()
	cfg := config.Baseline()
	cfg.PerfectDCache = true
	prof := []trace.Profile{trace.MustProfile("gzip")}

	free, err := r.RunMachine(cfg, prof, &policy.Capped{})
	if err != nil {
		t.Fatal(err)
	}
	tight := &policy.Capped{}
	tight.Caps[cpu.RIntRegs] = 8
	restricted, err := r.RunMachine(cfg, prof, tight)
	if err != nil {
		t.Fatal(err)
	}
	fIPC := free.Stats().Threads[0].IPC(free.Stats().Cycles)
	rIPC := restricted.Stats().Threads[0].IPC(restricted.Stats().Cycles)
	if rIPC >= fIPC*0.8 {
		t.Fatalf("8-register cap should hurt badly: %.3f vs free %.3f", rIPC, fIPC)
	}
}

func TestRunnerDeterminism(t *testing.T) {
	w, _ := workload.Get(2, workload.MEM, 1)
	run := func() Result {
		r := quickRunner()
		res, err := r.RunWorkload(config.Baseline(), w, policy.NewFlushPP())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Throughput != b.Throughput || a.Hmean != b.Hmean {
		t.Fatalf("identical runs diverged: %+v vs %+v", a, b)
	}
}
