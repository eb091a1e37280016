package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestChromeTraceSchema is the golden schema test for the trace export:
// the document must be the Chrome trace_event "JSON Array Format" —
// top-level traceEvents array and displayTimeUnit, and every event
// carrying name/cat/ph/ts/pid/tid with ph "X" spans adding dur. Any
// field rename breaks the chrome://tracing and Perfetto importers, so
// the test decodes into an untyped map rather than the package's own
// structs.
func TestChromeTraceSchema(t *testing.T) {
	tr := NewTracer()
	s0 := tr.Now()
	time.Sleep(time.Millisecond)
	tr.Span("quiesce", "phase", 0, s0)
	tr.Span("load-resolution", "phase", 3, tr.Now())
	tr.Instant("budget-exhausted", "enumeration", 1, map[string]any{"states": 42})

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc["displayTimeUnit"] != "ms" {
		t.Errorf("displayTimeUnit = %v, want \"ms\"", doc["displayTimeUnit"])
	}
	events, ok := doc["traceEvents"].([]any)
	if !ok {
		t.Fatalf("traceEvents is %T, want array", doc["traceEvents"])
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for i, raw := range events {
		e, ok := raw.(map[string]any)
		if !ok {
			t.Fatalf("event %d is %T, want object", i, raw)
		}
		for _, field := range []string{"name", "cat", "ph", "ts", "pid", "tid"} {
			if _, ok := e[field]; !ok {
				t.Errorf("event %d missing required field %q", i, field)
			}
		}
		if e["ph"] == "X" {
			if dur, ok := e["dur"].(float64); !ok || dur < 0 {
				t.Errorf("event %d: complete event needs dur >= 0, got %v", i, e["dur"])
			}
		}
	}
	// The sleep-bracketed span must have a measurable microsecond
	// duration relative to the tracer's epoch.
	first := events[0].(map[string]any)
	if first["name"] != "quiesce" || first["cat"] != "phase" {
		t.Errorf("first event = %v/%v, want quiesce/phase", first["name"], first["cat"])
	}
	if dur := first["dur"].(float64); dur < 500 {
		t.Errorf("1ms span recorded dur = %v µs", dur)
	}
}

// TestNilTracerWritesLoadableTrace: the disabled path must still emit a
// document chrome://tracing accepts (empty traceEvents, not null).
func TestNilTracerWritesLoadableTrace(t *testing.T) {
	var tr *Tracer
	if !tr.Now().IsZero() {
		t.Error("nil Tracer.Now should be zero")
	}
	tr.Span("x", "y", 0, time.Time{})
	tr.Instant("x", "y", 0, nil)
	if tr.Len() != 0 {
		t.Error("nil tracer buffered events")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceEvents == nil {
		t.Errorf("traceEvents must be [], not null: %s", buf.String())
	}
}

// TestTracerDropCap: events past maxEvents are dropped and counted in
// the metadata rather than growing the buffer without bound.
func TestTracerDropCap(t *testing.T) {
	tr := NewTracer()
	tr.events = make([]chromeEvent, maxEvents) // pre-fill to the cap
	tr.Instant("overflow", "test", 0, nil)
	if tr.Len() != maxEvents {
		t.Fatalf("buffer grew past cap: %d", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Metadata["dropped_events"] != float64(1) {
		t.Errorf("dropped_events = %v, want 1", doc.Metadata["dropped_events"])
	}
}
