package telemetry_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/order"
	"storeatomicity/internal/telemetry"
)

// The tests here feed telemetry from real engine runs. core imports
// telemetry, so only this external test package can import core.

// lineSink keeps the latest status line and whether Stop cleared it.
type lineSink struct {
	mu      sync.Mutex
	line    string
	cleared bool
}

func (s *lineSink) SetStatus(l string) { s.mu.Lock(); s.line = l; s.mu.Unlock() }
func (s *lineSink) ClearStatus()       { s.mu.Lock(); s.cleared = true; s.mu.Unlock() }

func (s *lineSink) state() (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.line, s.cleared
}

// TestProgressLine drives the live status line from a real run's
// metrics. SB3W under Relaxed evaluates 996 candidate children and the
// seen-set drops 748 of them at fork time, so the line must read
// "dedup 75.1%" beside the run's behavior, state and frontier counts.
// Stop must clear the line so piped output stays clean. obslog's Console
// tests cover the in-place redraw itself.
func TestProgressLine(t *testing.T) {
	met := telemetry.NewEnumMetrics(nil)
	res, err := core.Enumerate(context.Background(), litmus.SB3W().Build(), order.Relaxed(), core.Options{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	sink := &lineSink{}
	p := telemetry.StartProgress(sink, met, 0, time.Time{}, 5*time.Millisecond)
	if p == nil {
		t.Fatal("StartProgress returned nil with live metrics")
	}
	deadline := time.Now().Add(2 * time.Second)
	for line, _ := sink.state(); line == "" && time.Now().Before(deadline); line, _ = sink.state() {
		time.Sleep(5 * time.Millisecond)
	}
	p.Stop()

	line, cleared := sink.state()
	for _, want := range []string{
		fmt.Sprintf("%d behaviors", len(res.Executions)),
		fmt.Sprintf("%d states", res.Stats.StatesExplored),
		"frontier 0",
		"dedup 75.1%",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line missing %q:\n%q", want, line)
		}
	}
	if !cleared {
		t.Error("Stop did not clear the line")
	}
}
