package faults

import (
	"testing"
	"time"
)

func TestDeriveDeterministic(t *testing.T) {
	for _, kind := range Kinds() {
		a := Derive(kind, 7, 3, time.Second)
		b := Derive(kind, 7, 3, time.Second)
		if a != b {
			t.Errorf("%s: same seed derived %v and %v", kind, a, b)
		}
		if a.Worker < 0 || a.Worker >= 3 {
			t.Errorf("%s: worker %d out of fleet range", kind, a.Worker)
		}
		if a.After < 1 || a.After > 3 {
			t.Errorf("%s: trigger %d out of range", kind, a.After)
		}
	}
	// Different seeds explore different victims/triggers for at least one kind.
	varied := false
	for _, kind := range Kinds() {
		if Derive(kind, 1, 3, 0) != Derive(kind, 2, 3, 0) {
			varied = true
		}
	}
	if !varied {
		t.Error("seeds 1 and 2 derive identical plans for every kind")
	}
}

func TestParse(t *testing.T) {
	f, err := Parse("worker-crash:after=3")
	if err != nil || f.Kind != WorkerCrash || f.After != 3 {
		t.Fatalf("Parse = %+v, %v", f, err)
	}
	f, err = Parse("slow-loris:after=1:delay=250ms")
	if err != nil || f.Kind != SlowLoris || f.Delay != 250*time.Millisecond {
		t.Fatalf("Parse = %+v, %v", f, err)
	}
	if f, err = Parse("slow-loris"); err != nil || f.Delay == 0 {
		t.Fatalf("slow-loris default delay missing: %+v, %v", f, err)
	}
	// coordinator-restart is the harness's fault: a worker has no behaviour
	// for it, so -fault must refuse it rather than run fault-free.
	for _, bad := range []string{"", "meteor-strike", "coordinator-restart", "worker-crash:after=x", "worker-crash:nope=1", "worker-crash:after"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}
