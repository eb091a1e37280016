//go:build resolveshare

package storeatomicity

import (
	"context"
	"testing"

	"storeatomicity/internal/core"
	"storeatomicity/internal/telemetry"
)

// resolveShareGates are the E13/E14 baselines of Load Resolution's share
// of the three engine phase timers (generate, execute, resolve). A share
// is a time fraction, so unlike ns/op it compares across hosts of
// different speeds; but a single run's timers swing it by half on a busy
// host, so each entry sums them over a fixed number of runs, sized so
// that ten repeats of the test span less than half the 10% threshold.
// Each baseline is the median of ten repeats on a 2-vCPU Intel Xeon
// (go1.24).
var resolveShareGates = []struct {
	exp   string
	runs  int
	share float64
}{
	{"E13", 10000, 0.458},
	{"E14", 1000, 0.697},
}

// TestResolveShare fails when an entry's resolve share rises more than
// 10% above its baseline. Run with:
//
//	go test -tags resolveshare -run TestResolveShare -v .
func TestResolveShare(t *testing.T) {
	for _, g := range resolveShareGates {
		var s suiteEntry
		for _, e := range enumSuite {
			if e.exp == g.exp {
				s = e
			}
		}
		tc, m, opts := s.setup(t)
		met := telemetry.NewEnumMetrics(nil)
		opts.Metrics = met
		for i := 0; i < g.runs; i++ {
			if _, err := core.Enumerate(context.Background(), tc.Build(), m.Policy, opts); err != nil {
				t.Fatalf("%s: %v", s.name(), err)
			}
		}
		resolve := met.ResolveNs.Value()
		share := float64(resolve) / float64(resolve+met.GenerateNs.Value()+met.ExecuteNs.Value())
		t.Logf("%s: resolve share %.3f over %d runs (baseline %.3f, limit %.3f)",
			s.name(), share, g.runs, g.share, 1.10*g.share)
		if share > 1.10*g.share {
			t.Errorf("%s: resolve share %.3f is more than 10%% above its baseline %.3f", s.name(), share, g.share)
		}
	}
}
