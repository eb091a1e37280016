package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Tracer records span-style events for export as Chrome trace_event JSON
// (the "JSON Array Format" chrome://tracing and Perfetto load). Spans are
// complete ("ph":"X") events with microsecond timestamps relative to the
// tracer's creation; tid is the engine worker index, so the work-stealing
// engine renders one lane per worker. All methods are nil-safe.
//
// Event volume is bounded by maxEvents; past the cap new events are
// dropped and counted, so tracing a pathological enumeration cannot
// exhaust memory. The drop count is reported in the trace metadata.
type Tracer struct {
	mu      sync.Mutex
	start   time.Time
	events  []chromeEvent
	dropped int
	meta    map[string]any
}

// maxEvents caps the in-memory event buffer (~64 bytes/event).
const maxEvents = 1 << 20

// chromeEvent is one trace_event record. Field names follow the Chrome
// Trace Event Format spec exactly — renaming any of them breaks the
// chrome://tracing importer.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds since trace start
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

// NewTracer starts a tracer; timestamps are relative to this call.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// Now returns the tracer's clock reading, for bracketing a span. Nil-safe
// (returns the zero time, which Span treats as "don't record").
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Span records a complete event from start to now. cat groups related
// spans ("phase", "checkpoint", "enumeration"); tid is the worker lane.
// A zero start (from a nil tracer's Now) records nothing.
func (t *Tracer) Span(name, cat string, tid int, start time.Time) {
	t.SpanArgs(name, cat, tid, start, nil)
}

// SpanArgs is Span with an args payload — the dist layer stamps shard
// spans with their cross-process span ID here, which is what lets
// mmobs match a coordinator lease span to the worker execution it
// granted. Nil-safe.
func (t *Tracer) SpanArgs(name, cat string, tid int, start time.Time, args map[string]any) {
	if t == nil || start.IsZero() {
		return
	}
	end := time.Now()
	t.add(chromeEvent{
		Name: name, Cat: cat, Ph: "X",
		Ts:  float64(start.Sub(t.start).Nanoseconds()) / 1e3,
		Dur: float64(end.Sub(start).Nanoseconds()) / 1e3,
		Pid: 1, Tid: tid,
		Args: args,
	})
}

// SetMeta records a key in the trace's metadata object (run ID, source
// name, role). Nil-safe.
func (t *Tracer) SetMeta(key string, v any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.meta == nil {
		t.meta = map[string]any{}
	}
	t.meta[key] = v
	t.mu.Unlock()
}

// Instant records a zero-duration marker event with optional args.
func (t *Tracer) Instant(name, cat string, tid int, args map[string]any) {
	if t == nil {
		return
	}
	t.add(chromeEvent{
		Name: name, Cat: cat, Ph: "i",
		Ts:  float64(time.Since(t.start).Nanoseconds()) / 1e3,
		Pid: 1, Tid: tid,
		Args: args,
	})
}

func (t *Tracer) add(e chromeEvent) {
	t.mu.Lock()
	if len(t.events) >= maxEvents {
		t.dropped++
	} else {
		t.events = append(t.events, e)
	}
	t.mu.Unlock()
}

// Len returns the number of buffered events. Nil-safe.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteChrome serializes the trace as Chrome trace_event JSON. Nil-safe
// (writes an empty, still-loadable trace).
func (t *Tracer) WriteChrome(w io.Writer) error {
	doc := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	if t != nil {
		t.mu.Lock()
		doc.TraceEvents = append(doc.TraceEvents, t.events...)
		doc.Metadata = map[string]any{
			// Event timestamps are relative to the tracer's start; the
			// wall-clock anchor lets mmobs align traces from separate
			// processes onto one timeline.
			"start_unix_ns": t.start.UnixNano(),
		}
		for k, v := range t.meta {
			doc.Metadata[k] = v
		}
		if t.dropped > 0 {
			doc.Metadata["dropped_events"] = t.dropped
		}
		t.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}

// WriteFile writes the Chrome trace to path.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: write trace: %w", err)
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("telemetry: write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("telemetry: write trace: %w", err)
	}
	return nil
}
