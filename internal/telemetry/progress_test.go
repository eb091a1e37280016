package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer makes bytes.Buffer safe for the progress goroutine plus the
// test's reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestProgressLine drives the live status line: it must render the
// behaviors/states/frontier/dedup summary, redraw in place with \r, and
// clear itself on Stop so piped output stays clean.
func TestProgressLine(t *testing.T) {
	met := NewEnumMetrics(nil)
	met.Behaviors.Add(0, 5)
	met.Explored.Add(0, 100)
	met.Forks.Add(0, 50)
	met.DedupHits.Add(0, 10)
	met.Frontier.Set(7)

	var buf syncBuffer
	p := StartProgress(&buf, met, 1000, time.Time{}, 5*time.Millisecond)
	if p == nil {
		t.Fatal("StartProgress returned nil with live metrics")
	}
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(buf.String(), "behaviors") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	p.Stop()

	out := buf.String()
	for _, want := range []string{"5 behaviors", "100 states", "frontier 7", "dedup 20.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress line missing %q:\n%q", want, out)
		}
	}
	if !strings.Contains(out, "\r") {
		t.Error("progress did not redraw in place")
	}
	if !strings.HasSuffix(out, "\r") {
		t.Errorf("Stop did not clear the line: %q", out)
	}
}

// TestProgressNilSafe: a disabled run gets a nil Progress whose Stop is
// a no-op — callers never branch.
func TestProgressNilSafe(t *testing.T) {
	var buf bytes.Buffer
	p := StartProgress(&buf, nil, 0, time.Time{}, time.Millisecond)
	if p != nil {
		t.Fatal("StartProgress with nil metrics must return nil")
	}
	p.Stop()
	if buf.Len() != 0 {
		t.Errorf("nil progress wrote output: %q", buf.String())
	}
}
