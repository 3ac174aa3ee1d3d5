package branch

import (
	"testing"

	"dcra/internal/config"
	"dcra/internal/isa"
)

func newPredictor(threads int) *Predictor {
	return New(config.Baseline(), threads)
}

func TestLearnsBiasedBranch(t *testing.T) {
	p := newPredictor(1)
	u := isa.Uop{Class: isa.OpBranch, PC: 0x1000, Taken: true, Target: 0x2000}
	correct := 0
	const n = 200
	for i := 0; i < n; i++ {
		pr := p.Predict(0, &u)
		if pr.Taken && pr.TargetKnown && pr.Target == u.Target {
			correct++
		}
	}
	if correct < n*9/10 {
		t.Fatalf("always-taken branch predicted correctly only %d/%d", correct, n)
	}
}

func TestLearnsNotTakenBranch(t *testing.T) {
	p := newPredictor(1)
	u := isa.Uop{Class: isa.OpBranch, PC: 0x3000, Taken: false}
	correct := 0
	const n = 200
	for i := 0; i < n; i++ {
		if pr := p.Predict(0, &u); !pr.Taken {
			correct++
		}
	}
	if correct < n*9/10 {
		t.Fatalf("never-taken branch predicted correctly only %d/%d", correct, n)
	}
}

func TestBTBTargetChange(t *testing.T) {
	p := newPredictor(1)
	u := isa.Uop{Class: isa.OpBranch, PC: 0x4000, Taken: true, Target: 0x5000}
	for i := 0; i < 10; i++ {
		p.Predict(0, &u)
	}
	u.Target = 0x6000
	p.Predict(0, &u) // trains the new target
	pr := p.Predict(0, &u)
	if !pr.TargetKnown || pr.Target != 0x6000 {
		t.Fatalf("BTB did not retrain target: %+v", pr)
	}
}

func TestRASCallReturn(t *testing.T) {
	p := newPredictor(1)
	call := isa.Uop{Class: isa.OpBranch, CallKind: isa.CallDirect, PC: 0x100, Taken: true, Target: 0x900}
	ret := isa.Uop{Class: isa.OpBranch, CallKind: isa.CallReturn, PC: 0x904, Taken: true, Target: 0x104}
	p.Predict(0, &call)
	pr := p.Predict(0, &ret)
	if !pr.TargetKnown || pr.Target != 0x104 {
		t.Fatalf("RAS did not predict return to 0x104: %+v", pr)
	}
}

func TestRASNesting(t *testing.T) {
	p := newPredictor(1)
	for depth := uint64(0); depth < 8; depth++ {
		call := isa.Uop{Class: isa.OpBranch, CallKind: isa.CallDirect,
			PC: 0x100 * (depth + 1), Taken: true, Target: 0x9000}
		p.Predict(0, &call)
	}
	for depth := uint64(8); depth > 0; depth-- {
		want := 0x100*depth + 4
		ret := isa.Uop{Class: isa.OpBranch, CallKind: isa.CallReturn,
			PC: 0x8000, Taken: true, Target: want}
		pr := p.Predict(0, &ret)
		if !pr.TargetKnown || pr.Target != want {
			t.Fatalf("depth %d: predicted %#x, want %#x", depth, pr.Target, want)
		}
	}
}

func TestRASUnderflow(t *testing.T) {
	p := newPredictor(1)
	ret := isa.Uop{Class: isa.OpBranch, CallKind: isa.CallReturn, PC: 0x10, Taken: true, Target: 0x20}
	pr := p.Predict(0, &ret)
	if pr.TargetKnown {
		t.Fatal("empty RAS must not claim a known target")
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	p := newPredictor(1)
	call := isa.Uop{Class: isa.OpBranch, CallKind: isa.CallDirect, PC: 0x100, Taken: true, Target: 0x900}
	p.Predict(0, &call)
	snap := p.RASTop(0)
	// A speculative call that later squashes.
	spec := isa.Uop{Class: isa.OpBranch, CallKind: isa.CallDirect, PC: 0x200, Taken: true, Target: 0x900}
	p.Predict(0, &spec)
	p.SetRASTop(0, snap)
	ret := isa.Uop{Class: isa.OpBranch, CallKind: isa.CallReturn, PC: 0x904, Taken: true, Target: 0x104}
	pr := p.Predict(0, &ret)
	if !pr.TargetKnown || pr.Target != 0x104 {
		t.Fatalf("after snapshot restore, return predicted %#x, want 0x104", pr.Target)
	}
}

func TestPerThreadHistoryIsolation(t *testing.T) {
	p := newPredictor(2)
	// Thread 1 hammers random-ish outcomes; thread 0's biased branch must
	// still be predictable (histories are per thread; tables shared).
	u0 := isa.Uop{Class: isa.OpBranch, PC: 0x1000, Taken: true, Target: 0x40}
	correct := 0
	for i := 0; i < 200; i++ {
		u1 := isa.Uop{Class: isa.OpBranch, PC: uint64(0x2000 + i*4), Taken: i%3 == 0, Target: 0x80}
		p.Predict(1, &u1)
		if pr := p.Predict(0, &u0); pr.Taken {
			correct++
		}
	}
	if correct < 180 {
		t.Fatalf("thread 0 biased branch correct only %d/200 with noisy sibling", correct)
	}
}

func TestRASOverflowWraps(t *testing.T) {
	cfg := config.Baseline()
	cfg.RASEntries = 4
	p := New(cfg, 1)
	for i := uint64(0); i < 6; i++ {
		call := isa.Uop{Class: isa.OpBranch, CallKind: isa.CallDirect,
			PC: 0x100 + i*8, Taken: true, Target: 0x900}
		p.Predict(0, &call)
	}
	// The newest 4 return addresses survive; pops yield them LIFO.
	for i := uint64(5); i >= 2; i-- {
		want := 0x100 + i*8 + 4
		ret := isa.Uop{Class: isa.OpBranch, CallKind: isa.CallReturn, PC: 0x1, Taken: true, Target: want}
		pr := p.Predict(0, &ret)
		if !pr.TargetKnown || pr.Target != want {
			t.Fatalf("overflowed RAS pop %d: got %#x, want %#x", i, pr.Target, want)
		}
	}
}

// TestHistoryHoldsTrueOutcome checks that Predict folds each branch's true
// outcome into its thread's history, whatever it predicted: the history is
// never speculative, so a mispredicted branch leaves nothing to repair when
// it resolves.
func TestHistoryHoldsTrueOutcome(t *testing.T) {
	p := newPredictor(2)
	for i, u := range []isa.Uop{
		{Class: isa.OpBranch, PC: 0x1000, Taken: false},
		{Class: isa.OpBranch, PC: 0x1000, Taken: true, Target: 0x1800},
		{Class: isa.OpBranch, PC: 0x2000, Taken: false}, // weakly-taken counter: mispredicted
		{Class: isa.OpBranch, CallKind: isa.CallDirect, PC: 0x3000, Taken: true, Target: 0x9000},
		{Class: isa.OpBranch, CallKind: isa.CallReturn, PC: 0x9040, Taken: true, Target: 0x3004},
		{Class: isa.OpBranch, CallKind: isa.CallReturn, PC: 0x9080, Taken: true, Target: 0x5004}, // empty RAS
		{Class: isa.OpBranch, PC: 0x4000, Taken: true, Target: 0x4400},                           // BTB miss
	} {
		for thread := 0; thread < 2; thread++ {
			other := p.history[1-thread]
			pr := p.Predict(thread, &u)
			if got := p.history[thread]&1 == 1; got != u.Taken {
				t.Errorf("uop %d thread %d (predicted taken %v): last history bit %v, want the outcome %v",
					i, thread, pr.Taken, got, u.Taken)
			}
			if p.history[1-thread] != other {
				t.Errorf("uop %d: predicting for thread %d changed thread %d's history", i, thread, 1-thread)
			}
		}
	}
}
