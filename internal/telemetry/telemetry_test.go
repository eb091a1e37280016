package telemetry

import (
	"strings"
	"testing"
)

// TestCounterShardsFold checks that writes land on folded shards and
// Value sums them, including out-of-range shard indexes (workers pass
// their raw index; the counter masks).
func TestCounterShardsFold(t *testing.T) {
	var c Counter
	for i := 0; i < 3*Shards; i++ {
		c.Inc(i)
	}
	c.Add(-1, 5) // negative shard must fold, not panic
	if got := c.Value(); got != int64(3*Shards)+5 {
		t.Fatalf("Value = %d, want %d", got, 3*Shards+5)
	}
}

// TestNilSafety: every method on every nil metric type must be a no-op —
// the engines instrument unconditionally and rely on this.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Add(0, 1)
	c.Inc(3)
	if c.Value() != 0 {
		t.Error("nil Counter.Value != 0")
	}
	var g *Gauge
	g.Set(7)
	if g.Value() != 0 {
		t.Error("nil Gauge.Value != 0")
	}
	var h *Histogram
	h.Observe(3)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil Histogram not a no-op")
	}
	var r *Registry
	if r.NewCounter("x", "") != nil || r.NewGauge("y", "") != nil ||
		r.NewHistogramMetric("z", "", []int64{1}) != nil {
		t.Error("nil Registry must hand out nil metrics")
	}
	if r.Snapshot() != nil {
		t.Error("nil Registry.Snapshot != nil")
	}
	r.WritePrometheus(&strings.Builder{})

	var em *EnumMetrics
	if em.Registry() != nil || em.Snapshot() != nil {
		t.Error("nil EnumMetrics not a no-op")
	}
	var mm *MachineMetrics
	if mm.Registry() != nil || mm.Snapshot() != nil {
		t.Error("nil MachineMetrics not a no-op")
	}
}

// TestHistogramBuckets checks bucket assignment against inclusive upper
// bounds with the implicit +Inf bucket.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{1, 4, 16})
	for _, v := range []int64{0, 1, 2, 4, 5, 16, 17, 1000} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2, 2} // (≤1)=0,1  (≤4)=2,4  (≤16)=5,16  (+Inf)=17,1000
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d, want 8", h.Count())
	}
	if h.Sum() != 0+1+2+4+5+16+17+1000 {
		t.Errorf("Sum = %d", h.Sum())
	}
}

// TestRegistrySnapshot checks the flat snapshot keys: plain names for
// counters and gauges, cumulative name_le_<bound> plus _sum/_count for
// histograms.
func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "a counter")
	g := r.NewGauge("g", "a gauge")
	h := r.NewHistogramMetric("h", "a histogram", []int64{2, 8})
	c.Add(1, 5)
	g.Set(-3)
	h.Observe(1)
	h.Observe(4)
	h.Observe(100)

	s := r.Snapshot()
	want := Snapshot{
		"c_total": 5, "g": -3,
		"h_le_2": 1, "h_le_8": 2, "h_sum": 105, "h_count": 3,
		// Summary points: p50 interpolates inside (2,8], the tail
		// quantiles land in +Inf and floor at the largest bound.
		"h_p50": 5, "h_p95": 8, "h_p99": 8,
	}
	for k, v := range want {
		if s[k] != v {
			t.Errorf("snapshot[%q] = %d, want %d", k, s[k], v)
		}
	}
	if len(s) != len(want) {
		t.Errorf("snapshot has %d keys, want %d: %v", len(s), len(want), s)
	}
}

// TestWritePrometheus checks the text exposition format: HELP/TYPE
// lines, cumulative buckets ending in an explicit +Inf, and _sum/_count.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("c_total", "a counter").Inc(0)
	r.NewGauge("g", "a gauge").Set(2)
	h := r.NewHistogramMetric("h", "a histogram", []int64{10})
	h.Observe(3)
	h.Observe(99)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP c_total a counter",
		"# TYPE c_total counter",
		"c_total 1",
		"# TYPE g gauge",
		"g 2",
		"# TYPE h histogram",
		"h_bucket{le=\"10\"} 1",
		"h_bucket{le=\"+Inf\"} 2",
		"h_sum 102",
		"h_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotFormat checks the human rendering is sorted by name.
func TestSnapshotFormat(t *testing.T) {
	s := Snapshot{"b": 2, "a": 1}
	out := s.Format()
	if strings.Index(out, "a") > strings.Index(out, "b") {
		t.Errorf("Format not sorted:\n%s", out)
	}
}

// TestEnumMetricsSnapshot checks the pre-registered bundle round-trips
// through its own registry.
func TestEnumMetricsSnapshot(t *testing.T) {
	m := NewEnumMetrics(nil)
	m.Forks.Add(3, 7)
	m.Frontier.Set(9)
	m.Candidates.Observe(2)
	s := m.Snapshot()
	if s["enum_forks_total"] != 7 {
		t.Errorf("enum_forks_total = %d, want 7", s["enum_forks_total"])
	}
	if s["enum_frontier_depth"] != 9 {
		t.Errorf("enum_frontier_depth = %d, want 9", s["enum_frontier_depth"])
	}
	if s["enum_candidates_count"] != 1 {
		t.Errorf("enum_candidates_count = %d, want 1", s["enum_candidates_count"])
	}
}
