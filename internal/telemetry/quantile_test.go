package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestHistogramQuantile: linear interpolation inside the rank's bucket,
// a finite floor for +Inf samples, and zero for empty/nil histograms.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 40})
	// 10 samples in (0,10], 10 in (10,20].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	if q := h.Quantile(0.5); q != 10 {
		t.Errorf("p50 = %g, want 10 (boundary of the first bucket)", q)
	}
	if q := h.Quantile(0.25); q != 5 {
		t.Errorf("p25 = %g, want 5 (midpoint of (0,10])", q)
	}
	if q := h.Quantile(0.75); q != 15 {
		t.Errorf("p75 = %g, want 15 (midpoint of (10,20])", q)
	}
	// A sample past every bound lands in +Inf and is floored at the
	// largest finite bound.
	h.Observe(1e6)
	if q := h.Quantile(0.999); q != 40 {
		t.Errorf("p99.9 with +Inf sample = %g, want 40", q)
	}

	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram quantile != 0")
	}
	if NewHistogram([]int64{1}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
}

// TestQuantileExport: registry snapshots and the Prometheus exposition
// carry _p50/_p95/_p99 summary points for every histogram with samples.
func TestQuantileExport(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogramMetric("demo_ns", "demo", []int64{100, 1000})
	empty := reg.NewHistogramMetric("empty_ns", "never observed", []int64{100})
	_ = empty
	for i := 0; i < 100; i++ {
		h.Observe(50)
	}
	s := reg.Snapshot()
	for _, k := range []string{"demo_ns_p50", "demo_ns_p95", "demo_ns_p99"} {
		if _, ok := s[k]; !ok {
			t.Errorf("snapshot missing %s: %v", k, s)
		}
	}
	if _, ok := s["empty_ns_p50"]; ok {
		t.Error("empty histogram exported a quantile")
	}

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{"# TYPE demo_ns_p95 gauge", "demo_ns_p50 ", "demo_ns_p99 "} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q:\n%s", want, text)
		}
	}
}

// TestFleetMetricsUpdate: fleet gauges are live sums over the given
// snapshots, and re-Update with fewer workers shrinks them (gauges, not
// counters).
func TestFleetMetricsUpdate(t *testing.T) {
	reg := NewRegistry()
	f := NewFleetMetrics(reg)
	f.Update([]Snapshot{
		{"enum_states_explored_total": 100, "dist_retries_total": 2},
		{"enum_states_explored_total": 50, "enum_behaviors_total": 7},
	})
	s := reg.Snapshot()
	if s["dist_fleet_states_explored"] != 150 || s["dist_fleet_behaviors"] != 7 ||
		s["dist_fleet_retries"] != 2 || s["dist_fleet_snapshot_workers"] != 2 {
		t.Fatalf("fleet sums wrong: %v", s)
	}
	f.Update([]Snapshot{{"enum_states_explored_total": 60}})
	s = reg.Snapshot()
	if s["dist_fleet_states_explored"] != 60 || s["dist_fleet_snapshot_workers"] != 1 {
		t.Fatalf("fleet gauges did not shrink with the fleet: %v", s)
	}

	var nilF *FleetMetrics
	nilF.Update(nil) // must not panic
}

// TestProgressRoutesThroughStatusSink: when the progress writer owns
// the status line (obslog.Console's interface), redraws and Stop go
// through it instead of raw \r writes.
func TestProgressRoutesThroughStatusSink(t *testing.T) {
	sink := &recordingSink{}
	m := NewEnumMetrics(nil)
	p := StartProgress(sink, m, 0, time.Time{}, 0)
	p.draw()
	p.Stop()
	if len(sink.statuses) == 0 {
		t.Fatal("draw bypassed the status sink")
	}
	if !sink.cleared {
		t.Fatal("Stop did not clear through the sink")
	}
	if sink.rawWrites != 0 {
		t.Fatalf("progress wrote %d raw chunks past the sink", sink.rawWrites)
	}
}
