package telemetry

import (
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
