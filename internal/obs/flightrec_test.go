package obs

import (
	"testing"
	"time"
)

func TestFlightRecorder(t *testing.T) {
	f := NewFlightRecorder(3)
	at := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	f.SetClock(func() time.Time { return at })
	for i := 1; i <= 5; i++ {
		f.Record("lease", "event %d", i)
	}
	ev := f.Events()
	if len(ev) != 3 {
		t.Fatalf("kept %d events, want 3", len(ev))
	}
	if ev[0].Seq != 3 || ev[2].Seq != 5 {
		t.Errorf("kept seqs %d..%d, want 3..5 (oldest overwritten)", ev[0].Seq, ev[2].Seq)
	}
	if ev[2].Msg != "event 5" || ev[2].Kind != "lease" {
		t.Errorf("newest event = %+v", ev[2])
	}
	d := f.Dump("test abort")
	if d.Recorded != 5 || d.Dropped != 2 || d.Reason != "test abort" {
		t.Errorf("dump header = %+v, want recorded 5, dropped 2", d)
	}

	path := t.TempDir() + "/flightrec.json"
	if err := f.WriteFile(path, "test abort"); err != nil {
		t.Fatal(err)
	}

	// Nil recorder: everything is a no-op, and a dump is still writable.
	var nilRec *FlightRecorder
	nilRec.Record("x", "ignored")
	if nilRec.Len() != 0 || nilRec.Events() != nil {
		t.Error("nil recorder should hold nothing")
	}
	if err := nilRec.WriteFile(t.TempDir()+"/nil.json", "empty"); err != nil {
		t.Fatal(err)
	}
}
