package obs

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
)

func TestTracerChromeFormat(t *testing.T) {
	tr := NewTracer()
	tr.Process(0, "coordinator")
	tr.Lane(0, 1, "worker w1")
	end := tr.Span(0, 1, "lease L1", "lease")
	end()
	tr.CompleteAt(1, 1, "cell BASE/ILP2.0/DCRA", "cell", 100, 250)

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	var sawLease, sawCell bool
	for _, e := range doc.TraceEvents {
		name, _ := e["name"].(string)
		ph, _ := e["ph"].(string)
		if ph == "X" {
			if _, ok := e["dur"].(float64); !ok && name != "lease L1" {
				t.Fatalf("complete event %q missing dur", name)
			}
		}
		switch e["cat"] {
		case "lease":
			sawLease = true
		case "cell":
			sawCell = true
		}
	}
	if !sawLease || !sawCell {
		t.Fatalf("trace must contain lease and cell spans (lease=%v cell=%v)", sawLease, sawCell)
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	end := tr.Span(0, 0, "s", "c")
	end()
	tr.CompleteAt(0, 0, "x", "c", 0, 1)
	tr.Process(0, "p")
	tr.Lane(0, 0, "l")
	if tr.Len() != 0 {
		t.Fatal("nil tracer must record nothing")
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer output not valid JSON: %v", err)
	}
}
