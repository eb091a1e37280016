// Package telemetry is the zero-dependency observability layer of the
// reproduction: atomic counters, gauges, and bucketed histograms for the
// enumeration engines and the operational machine, a span-style tracer
// that exports Chrome trace_event JSON (chrome://tracing), an HTTP
// server exposing expvar + Prometheus text exposition + net/http/pprof,
// and a live stderr progress line for long enumerations.
//
// Every metric type is nil-safe: calling any method on a nil *Counter,
// *Gauge, *Histogram, *EnumMetrics, *MachineMetrics, or *Tracer is a
// no-op, so the engines instrument unconditionally and a disabled run
// (nil Options.Metrics) pays only a predictable nil-check branch on the
// hot path. A nil sink is the only way to turn instrumentation off.
//
// Counters are sharded across padded cache lines and indexed by worker,
// so the work-stealing engine's workers never contend on a metric write;
// Value() folds the shards. Gauges are single atomics (last write wins).
// Histograms use fixed upper-bound buckets with atomic counts, exported
// in Prometheus cumulative-bucket form.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Shards is the counter shard count. Worker indexes are folded with
// `idx & (Shards-1)`; 32 padded shards keep false sharing negligible at
// any realistic worker count.
const Shards = 32

// padded is one cache-line-sized counter shard.
type padded struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter.
type Counter struct {
	shards [Shards]padded
}

// Add increments the counter by d on the given shard (callers pass their
// worker index; any int is folded into range). Nil-safe.
func (c *Counter) Add(shard int, d int64) {
	if c == nil {
		return
	}
	c.shards[uint(shard)&(Shards-1)].v.Add(d)
}

// Inc is Add(shard, 1).
func (c *Counter) Inc(shard int) { c.Add(shard, 1) }

// Value folds the shards into the counter's total. Nil-safe (returns 0).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var t int64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// Gauge is an instantaneous value (last write wins).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value reads the gauge. Nil-safe (returns 0).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution: bounds are inclusive upper
// bounds in ascending order, with an implicit +Inf bucket at the end.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last = +Inf
	sum    atomic.Int64
	total  atomic.Int64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds []int64) *Histogram {
	h := &Histogram{bounds: append([]int64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(h.bounds)+1)
	return h
}

// Observe records one sample. Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// quantiles are the summary points exported from every histogram
// (snapshot keys and Prometheus series get the matching _p50/_p95/_p99
// suffixes).
var quantiles = []struct {
	q      float64
	suffix string
}{
	{0.50, "_p50"},
	{0.95, "_p95"},
	{0.99, "_p99"},
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// distribution by linear interpolation inside the bucket holding the
// rank, the standard fixed-bucket estimator. Samples landing in the
// +Inf bucket are reported as the largest finite bound — a floor, not
// an estimate, but an honest one. Nil-safe (returns 0, as does an empty
// histogram).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.total.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c > 0 && float64(cum)+float64(c) >= rank {
			if i >= len(h.bounds) {
				return float64(h.bounds[len(h.bounds)-1])
			}
			lo := float64(0)
			if i > 0 {
				lo = float64(h.bounds[i-1])
			}
			hi := float64(h.bounds[i])
			return lo + (hi-lo)*(rank-float64(cum))/float64(c)
		}
		cum += c
	}
	return float64(h.bounds[len(h.bounds)-1])
}

// Count returns the number of samples. Nil-safe.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of all samples. Nil-safe.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Snapshot is a flat point-in-time view of a registry: metric name (with
// histogram buckets flattened to name_le_<bound>, plus name_sum and
// name_count) to value. It is what the Incomplete report, checkpoint
// files, and fleet heartbeats embed.
type Snapshot map[string]int64

// metricKind tags a registry entry for Prometheus type lines.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

// entry is one registered metric.
type entry struct {
	name, help string
	kind       metricKind
	c          *Counter
	g          *Gauge
	h          *Histogram
}

// Registry is an ordered collection of named metrics. The zero value is
// unusable; NewRegistry allocates one. A nil registry is a no-op source
// of nil metrics, so construction can be gated on a flag without
// spreading conditionals.
type Registry struct {
	mu      sync.Mutex
	entries []entry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// NewCounter registers and returns a counter. Nil-safe (returns nil).
func (r *Registry) NewCounter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.mu.Lock()
	r.entries = append(r.entries, entry{name: name, help: help, kind: counterKind, c: c})
	r.mu.Unlock()
	return c
}

// NewGauge registers and returns a gauge. Nil-safe (returns nil).
func (r *Registry) NewGauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.mu.Lock()
	r.entries = append(r.entries, entry{name: name, help: help, kind: gaugeKind, g: g})
	r.mu.Unlock()
	return g
}

// NewHistogramMetric registers and returns a histogram over bounds.
// Nil-safe (returns nil).
func (r *Registry) NewHistogramMetric(name, help string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	h := NewHistogram(bounds)
	r.mu.Lock()
	r.entries = append(r.entries, entry{name: name, help: help, kind: histogramKind, h: h})
	r.mu.Unlock()
	return h
}

// Snapshot flattens every registered metric into a Snapshot. Nil-safe
// (returns nil).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := append([]entry(nil), r.entries...)
	r.mu.Unlock()
	s := Snapshot{}
	for _, e := range entries {
		switch e.kind {
		case counterKind:
			s[e.name] = e.c.Value()
		case gaugeKind:
			s[e.name] = e.g.Value()
		case histogramKind:
			var cum int64
			for i := range e.h.counts {
				cum += e.h.counts[i].Load()
				if i < len(e.h.bounds) {
					s[fmt.Sprintf("%s_le_%d", e.name, e.h.bounds[i])] = cum
				}
			}
			s[e.name+"_sum"] = e.h.Sum()
			s[e.name+"_count"] = e.h.Count()
			if e.h.Count() > 0 {
				for _, p := range quantiles {
					s[e.name+p.suffix] = int64(e.h.Quantile(p.q))
				}
			}
		}
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE lines, cumulative histogram
// buckets with an explicit +Inf, and _sum/_count series. Nil-safe.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	entries := append([]entry(nil), r.entries...)
	r.mu.Unlock()
	for _, e := range entries {
		fmt.Fprintf(w, "# HELP %s %s\n", e.name, e.help)
		switch e.kind {
		case counterKind:
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", e.name, e.name, e.c.Value())
		case gaugeKind:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", e.name, e.name, e.g.Value())
		case histogramKind:
			fmt.Fprintf(w, "# TYPE %s histogram\n", e.name)
			var cum int64
			for i := range e.h.counts {
				cum += e.h.counts[i].Load()
				if i < len(e.h.bounds) {
					fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", e.name, e.h.bounds[i], cum)
				} else {
					fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", e.name, cum)
				}
			}
			fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", e.name, e.h.Sum(), e.name, e.h.Count())
			// Estimated tail quantiles ride along as separate gauge
			// families (a histogram family must not mix metric types,
			// so the summary points get their own _pNN names).
			for _, p := range quantiles {
				fmt.Fprintf(w, "# HELP %s%s estimated p%d of %s\n# TYPE %s%s gauge\n%s%s %g\n",
					e.name, p.suffix, int(p.q*100), e.name, e.name, p.suffix, e.name, p.suffix, e.h.Quantile(p.q))
			}
		}
	}
}

// Format renders a snapshot as sorted "name value" lines for human
// consumption (the CLI's final-report footer).
func (s Snapshot) Format() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-44s %d\n", k, s[k])
	}
	return b.String()
}
