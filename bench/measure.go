package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"storeatomicity/internal/telemetry"
)

// metricDef names one reported number. The two tables below are the
// benchmark's schema; BENCHMARK.json repeats them and the schema test
// keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the numbers a user of the engine, mmserve or the fleet
// sees. Each is reported on every workload by every untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_tail", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"heap_live_mb_p95", "MB", "lower"},
}

// perLayer are the single-layer numbers of a traced run. A layer that a
// workload bypasses reports 0. Counts are per op unless named otherwise.
var perLayer = []metricDef{
	{"core.enumerate_s", "s", "lower"},
	{"core.us_per_state", "us", "lower"},
	{"core.states_explored", "count", "lower"},
	{"core.behaviors", "count", "higher"},
	{"core.forks", "count", "lower"},
	{"core.children_elided", "count", "higher"},
	{"core.materialize_ratio", "ratio", "lower"},
	{"core.trial_rollbacks", "count", "lower"},
	{"core.duplicates_discarded", "count", "lower"},
	{"core.prefix_pruned", "count", "higher"},
	{"core.symmetry_pruned", "count", "higher"},
	{"core.pool_hit_ratio", "ratio", "higher"},
	{"core.pool_dropped", "count", "lower"},
	{"core.steals", "count", "lower"},
	{"core.frontier_demoted", "count", "lower"},
	{"core.frontier_peak_kb", "KiB", "lower"},
	{"core.spill_runs", "count", "lower"},
	{"core.spill_probes", "count", "lower"},
	{"core.spill_compactions", "count", "lower"},
	{"core.phase_generate_s", "s", "lower"},
	{"core.phase_execute_s", "s", "lower"},
	{"core.phase_resolve_s", "s", "lower"},
	{"core.state_us_p50", "us", "lower"},
	{"core.state_us_p99", "us", "lower"},
	{"core.self_share", "ratio", "lower"},
	{"graph.cow_rows_copied", "count", "lower"},
	{"graph.cow_share_ratio", "ratio", "higher"},
	{"graph.slab_kb", "KiB", "lower"},
	{"serve.hit_ratio", "ratio", "higher"},
	{"serve.hits", "count", "higher"},
	{"serve.misses", "count", "lower"},
	{"serve.coalesced", "count", "lower"},
	{"serve.evictions", "count", "lower"},
	{"serve.oversize", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.hit_handler_us_p50", "us", "lower"},
	{"serve.hit_handler_us_p99", "us", "lower"},
	{"serve.transport_us_p50", "us", "lower"},
	{"serve.miss_handler_ms_p50", "ms", "lower"},
	{"serve.miss_handler_ms_p99", "ms", "lower"},
	{"serve.conn_wait_ms_p99", "ms", "lower"},
	{"serve.journal_logical_writes", "count", "lower"},
	{"serve.journal_db_ratio", "ratio", "lower"},
	{"serve.engine_states", "count", "lower"},
	{"serve.cache_kb", "KiB", "lower"},
	{"serve.generator_late_ms_max", "ms", "lower"},
	{"serve.self_share", "ratio", "lower"},
	{"dist.partition_ms_p50", "ms", "lower"},
	{"dist.register_us_p50", "us", "lower"},
	{"dist.lease_us_p50", "us", "lower"},
	{"dist.complete_us_p50", "us", "lower"},
	{"dist.shard_compute_ms_p50", "ms", "lower"},
	{"dist.merge_ms_p50", "ms", "lower"},
	{"dist.wait_leases", "count", "lower"},
	{"dist.idle_ms_per_job", "ms", "lower"},
	{"dist.shards_per_job", "count", "lower"},
	{"dist.calls_per_job", "count", "lower"},
	{"dist.wire_kb_per_job", "KiB", "lower"},
	{"dist.state_overhead_ratio", "ratio", "lower"},
	{"dist.fingerprints_exchanged", "count", "lower"},
	{"dist.retries", "count", "lower"},
	{"dist.self_share", "ratio", "lower"},
	{"bench.self_share", "ratio", "lower"},
	{"bench.idle_share", "ratio", "lower"},
	{"bench.unattributed_share", "ratio", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"bench.verify_s", "s", "lower"},
}

// values holds measured metrics by name.
type values map[string]float64

// quantile returns the p-th percentile (0..100) of ascending samples,
// interpolating linearly between the two closest ranks.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	h := p / 100 * float64(len(sorted)-1)
	lo := int(h)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// beyond counts the samples of n that rank strictly above the p-th
// percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(p/100*float64(n-1))
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// tailPercentile is the highest percentile of tailLadder with at least
// ten of n samples beyond it, and 50 when n is too small for any. Each
// workload's reported tail is frozen at tailPercentile of the sample
// count its runs had when the benchmark was defined, so that a faster
// change cannot move the tail to a different percentile.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 50)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the live heap each GC cycle leaves behind
// (runtime/metrics /gc/heap/live:bytes), checked every 10ms and kept
// once per new cycle.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	live []float64 // MB
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
		metrics.Read(sample)
		// The heap the phase starts from counts as its first cycle, so a
		// phase with no collection still reports its heap.
		lastCycle := sample[1].Value.Uint64()
		h.live = append(h.live, float64(sample[0].Value.Uint64())/(1<<20))
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			metrics.Read(sample)
			if c := sample[1].Value.Uint64(); c != lastCycle {
				lastCycle = c
				h.live = append(h.live, float64(sample[0].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the 95th percentile of the live
// heap over the GC cycles it saw, in MB. The maximum is not reported: it
// depends on whether a collection happened to end inside the one
// largest op, and moved by ±25% between runs where the 95th percentile
// moved by ±4%.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	sort.Float64s(h.live)
	return quantile(h.live, 95)
}

// tally counts attempted and failed operations and checks across a
// whole run. Every failure is one op that errored or one answer that
// did not match its check.
type tally struct {
	mu         sync.Mutex
	attempted  int
	failed     int
	notes      []string
	knownDiffs []string
}

// maxNotes caps the failure messages kept for the report.
const maxNotes = 20

// check records one attempted check and reports whether it passed; a
// failing check keeps its message.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
	if !ok {
		t.fail(format, args...)
	}
	return ok
}

// known records a passed check that shows a documented difference
// present when the benchmark was defined.
func (t *tally) known(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.knownDiffs = append(t.knownDiffs, fmt.Sprintf(format, args...))
}

// fail records a failed check of an op already counted as attempted.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.notes) < maxNotes {
		msg := fmt.Sprintf(format, args...)
		t.notes = append(t.notes, msg)
		fmt.Fprintln(os.Stderr, "bench: FAIL:", msg)
	}
}

// phase is one measured stretch of a run: ops from index 0 until the
// phase's time is spent. A traced phase carries a tracer and engine
// metrics; the phase that digests its prefix carries a golden hash.
type phase struct {
	target time.Duration
	tr     *tracer
	enum   *telemetry.EnumMetrics
	golden *transcript
	tally  *tally

	mu   sync.Mutex
	lat  []float64 // per-op latency in ms
	busy time.Duration
	cpu  time.Duration
	ops  int

	cpu0       time.Duration
	start, end time.Time
	heap       *heapSampler
	heapMB     float64
}

func newPhase(target time.Duration, t *tally) *phase {
	return &phase{target: target, tally: t}
}

// begin starts the phase clocks.
func (ph *phase) begin() {
	ph.heap = startHeapSampler()
	ph.cpu0 = cpuTime()
	ph.start = time.Now()
	ph.tr.begin(ph.start)
}

// finish stops the phase clocks; for an open loop the CPU of the whole
// phase is charged to its ops.
func (ph *phase) finish(openLoop bool) {
	ph.end = time.Now()
	if openLoop {
		ph.cpu = cpuTime() - ph.cpu0
		ph.busy = ph.end.Sub(ph.start)
	}
	ph.heapMB = ph.heap.finish()
	ph.tr.finish(ph.end)
}

// record adds one completed op.
func (ph *phase) record(latency time.Duration) {
	ph.mu.Lock()
	ph.lat = append(ph.lat, float64(latency.Nanoseconds())/1e6)
	ph.ops++
	ph.mu.Unlock()
}

// closedLoop runs op(i) for i = 0, 1, ... one at a time until the ops
// have taken the phase's target time between them, stopping only at a
// multiple of unit ops so that a workload built from fixed decks always
// measures whole decks. Only op itself is timed; the check it returns
// runs untimed (but traced) before the next op starts.
func (ph *phase) closedLoop(unit int, op func(i, root int) (check func(), err error)) {
	ph.begin()
	for i := 0; ph.busy < ph.target || i%unit != 0; i++ {
		root := ph.tr.reserve()
		c0, t0 := cpuTime(), time.Now()
		check, err := op(i, root)
		t1 := time.Now()
		ph.cpu += cpuTime() - c0
		ph.busy += t1.Sub(t0)
		ph.tr.add(root, "bench.op", 0, i, 0, t0, t1)
		ph.record(t1.Sub(t0))
		if !ph.tally.check(err == nil, "op %d: %v", i, err) || check == nil {
			continue
		}
		cs := time.Now()
		check()
		ph.tr.add(ph.tr.reserve(), "bench.check", 0, i, 0, cs, time.Now())
	}
	ph.finish(false)
}

// endToEnd computes the end-to-end metrics of the phase at the given
// tail percentile.
func (ph *phase) endToEnd(tailP float64) values {
	sorted := append([]float64(nil), ph.lat...)
	sort.Float64s(sorted)
	v := values{
		"latency_ms_p50":   quantile(sorted, 50),
		"latency_ms_tail":  quantile(sorted, tailP),
		"heap_live_mb_p95": ph.heapMB,
	}
	v["throughput_ops_s"] = ph.throughput()
	if ph.ops > 0 {
		v["cpu_ms_per_op"] = float64(ph.cpu.Nanoseconds()) / 1e6 / float64(ph.ops)
	}
	return v
}

// throughput is ops per second of measured time.
func (ph *phase) throughput() float64 {
	if ph.busy <= 0 {
		return 0
	}
	return float64(ph.ops) / ph.busy.Seconds()
}

// ladder returns the op latency in ms at every tailLadder percentile,
// for the artifact: it is what a tail percentile is chosen from.
func (ph *phase) ladder() map[string]float64 {
	sorted := append([]float64(nil), ph.lat...)
	sort.Float64s(sorted)
	out := map[string]float64{}
	for _, p := range tailLadder {
		out[fmt.Sprintf("p%g", p)] = quantile(sorted, p)
	}
	return out
}

// perOp divides a phase total by the phase's op count.
func (ph *phase) perOp(total float64) float64 {
	if ph.ops == 0 {
		return 0
	}
	return total / float64(ph.ops)
}

// ratio is a/(a+b), or 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// finite replaces NaN and infinities by 0 so the JSON encoder accepts
// every value.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
