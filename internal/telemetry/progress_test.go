package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// recordingSink is a StatusSink that records every status line and
// whether it was cleared, safe for the progress goroutine plus the
// test's reads. Write counts raw bytes that bypass the status line.
type recordingSink struct {
	mu        sync.Mutex
	statuses  []string
	cleared   bool
	rawWrites int
}

func (r *recordingSink) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rawWrites++
	return len(p), nil
}

func (r *recordingSink) SetStatus(s string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.statuses = append(r.statuses, s)
}

func (r *recordingSink) ClearStatus() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cleared = true
}

// last returns the most recent status line ("" before the first).
func (r *recordingSink) last() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.statuses) == 0 {
		return ""
	}
	return r.statuses[len(r.statuses)-1]
}

// TestProgressLine drives the live status line: it must render the
// behaviors/states/frontier/dedup summary into the status sink and
// clear it on Stop so piped output stays clean. obslog's Console tests
// cover the in-place redraw itself.
func TestProgressLine(t *testing.T) {
	met := NewEnumMetrics(nil)
	met.Behaviors.Add(0, 5)
	met.Explored.Add(0, 100)
	met.Forks.Add(0, 50)
	met.DedupHits.Add(0, 10)
	met.Frontier.Set(7)

	sink := &recordingSink{}
	p := StartProgress(sink, met, 1000, time.Time{}, 5*time.Millisecond)
	if p == nil {
		t.Fatal("StartProgress returned nil with live metrics")
	}
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(sink.last(), "behaviors") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	p.Stop()

	line := sink.last()
	for _, want := range []string{"5 behaviors", "100 states", "frontier 7", "dedup 20.0%"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line missing %q:\n%q", want, line)
		}
	}
	if !sink.cleared {
		t.Error("Stop did not clear the line")
	}
}

// TestProgressNilSafe: a disabled run gets a nil Progress whose Stop is
// a no-op — callers never branch.
func TestProgressNilSafe(t *testing.T) {
	sink := &recordingSink{}
	p := StartProgress(sink, nil, 0, time.Time{}, time.Millisecond)
	if p != nil {
		t.Fatal("StartProgress with nil metrics must return nil")
	}
	p.Stop()
	if len(sink.statuses) != 0 || sink.cleared || sink.rawWrites != 0 {
		t.Errorf("nil progress touched the sink: %d statuses, cleared %v, %d raw writes",
			len(sink.statuses), sink.cleared, sink.rawWrites)
	}
}
