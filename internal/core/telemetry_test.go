package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"storeatomicity/internal/order"
	"storeatomicity/internal/telemetry"
)

// TestDisabledTelemetryForkAllocs pins the cost of the disabled
// telemetry path where it matters most: the pooled fork. With nil
// Options.Metrics the instrumentation must reduce to nil-check branches
// — zero allocations on the steady-state fork/recycle cycle, exactly as
// before the telemetry layer existed.
func TestDisabledTelemetryForkAllocs(t *testing.T) {
	s := newState(figure10Prog(), order.Relaxed(), Options{}.withDefaults())
	if err := s.runToQuiescence(); err != nil {
		t.Fatal(err)
	}
	var pool statePool
	pool.put(s.clone()) // warm the pool so every measured fork recycles
	allocs := testing.AllocsPerRun(100, func() {
		c := s.fork(&pool)
		pool.put(c)
	})
	if allocs != 0 {
		t.Errorf("pooled fork with telemetry disabled allocates %.1f/op, want 0", allocs)
	}
}

// TestNilTelemetryReadsNoClock pins the disabled path exactly: with nil
// Metrics, Tracer and Journal and no Checkpoint, the engine reads the
// clock zero times at width 1 and width 2, with and without the spill
// and demotion budgets. The same runs with a metric or trace sink must
// read it, which shows every clock read goes through the counted seam.
func TestNilTelemetryReadsNoClock(t *testing.T) {
	var reads atomic.Int64
	defer func(orig func() time.Time) { now = orig }(now)
	now = func() time.Time {
		reads.Add(1)
		return time.Now()
	}
	for _, workers := range []int{1, 2} {
		for _, budgets := range []Options{{}, {DedupMemBudget: 64, FrontierResidentBytes: 1}} {
			for _, sink := range []struct {
				name string
				met  *telemetry.EnumMetrics
				tr   *telemetry.Tracer
			}{
				{"nil sinks", nil, nil},
				{"metrics", telemetry.NewEnumMetrics(nil), nil},
				{"tracer", nil, telemetry.NewTracer()},
			} {
				opts := budgets
				opts.Metrics, opts.Tracer = sink.met, sink.tr
				reads.Store(0)
				if _, err := EnumerateParallel(context.Background(), figure10Prog(), order.Relaxed(), opts, workers); err != nil {
					t.Fatal(err)
				}
				if got, off := reads.Load(), sink.met == nil && sink.tr == nil; off != (got == 0) {
					t.Errorf("width %d, budgeted %t, %s: %d clock reads; want zero exactly when every sink is nil",
						workers, budgets.DedupMemBudget > 0, sink.name, got)
				}
			}
		}
	}
}

// TestMetricsMatchStats: the telemetry counters and the Result.Stats
// struct are two views of the same run and must agree exactly.
func TestMetricsMatchStats(t *testing.T) {
	met := telemetry.NewEnumMetrics(nil)
	res, err := Enumerate(context.Background(), figure10Prog(), order.Relaxed(),
		Options{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	snap := met.Snapshot()
	checks := map[string]int{
		"enum_states_explored_total": res.Stats.StatesExplored,
		"enum_forks_total":           res.Stats.Forks,
		"enum_dedup_hits_total":      res.Stats.DuplicatesDiscarded,
		"enum_rollbacks_total":       res.Stats.Rollbacks,
		"enum_steals_total":          res.Stats.Steals,
		"enum_pool_hits_total":       res.Stats.PoolHits,
		"enum_pool_misses_total":     res.Stats.PoolMisses,
		"enum_behaviors_total":       len(res.Executions),
		"enum_workers":               res.Stats.Workers,
	}
	for name, want := range checks {
		if snap[name] != int64(want) {
			t.Errorf("%s = %d, Stats says %d", name, snap[name], want)
		}
	}
	if res.Stats.Workers != 1 {
		t.Errorf("sequential Stats.Workers = %d, want 1", res.Stats.Workers)
	}
	// The run did real work, so the phase clocks must have advanced.
	if snap["enum_phase_generate_ns_total"] <= 0 || snap["enum_phase_execute_ns_total"] <= 0 ||
		snap["enum_phase_resolve_ns_total"] <= 0 {
		t.Errorf("phase timers did not advance: gen=%d exe=%d res=%d",
			snap["enum_phase_generate_ns_total"], snap["enum_phase_execute_ns_total"],
			snap["enum_phase_resolve_ns_total"])
	}
	if snap["enum_candidates_count"] == 0 {
		t.Error("candidates(L) histogram recorded no samples")
	}
}

// TestStatsUnifiedAcrossEngines is the engine-parity satellite: the
// sequential engine populates the same Stats struct the parallel engine
// does (Workers, PoolHits, PoolMisses — with Steals structurally zero),
// and the order-independent totals match across engines, so a caller
// never branches on which engine produced a Result.
func TestStatsUnifiedAcrossEngines(t *testing.T) {
	seq, err := Enumerate(context.Background(), figure10Prog(), order.Relaxed(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := EnumerateParallel(context.Background(), figure10Prog(), order.Relaxed(), Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats.Workers != 1 || seq.Stats.Steals != 0 {
		t.Errorf("sequential Stats: Workers=%d Steals=%d, want 1/0",
			seq.Stats.Workers, seq.Stats.Steals)
	}
	if par.Stats.Workers != 4 {
		t.Errorf("parallel Stats.Workers = %d, want 4", par.Stats.Workers)
	}
	// Every pool get is a fork() call, and only queued children (Forks)
	// are forked: trial rollbacks and leaf children, which are recorded
	// straight from the trial, never are.
	for _, eng := range []struct {
		name string
		st   Stats
	}{{"sequential", seq.Stats}, {"parallel", par.Stats}} {
		if gets := eng.st.PoolHits + eng.st.PoolMisses; gets != eng.st.Forks {
			t.Errorf("%s pool accounting: hits %d + misses %d, want forks %d",
				eng.name, eng.st.PoolHits, eng.st.PoolMisses, eng.st.Forks)
		}
	}
	if seq.Stats.StatesExplored != par.Stats.StatesExplored ||
		seq.Stats.Forks != par.Stats.Forks ||
		seq.Stats.DuplicatesDiscarded != par.Stats.DuplicatesDiscarded ||
		seq.Stats.Rollbacks != par.Stats.Rollbacks {
		t.Errorf("engines disagree on totals: seq %+v, par %+v", seq.Stats, par.Stats)
	}
}

// TestIncompleteEmbedsMetrics: a budget-stopped run's report carries the
// final telemetry snapshot, so partial-result consumers see how far the
// engine got without a live scrape.
func TestIncompleteEmbedsMetrics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		met := telemetry.NewEnumMetrics(nil)
		opts := Options{MaxBehaviors: 5, Metrics: met}
		var res *Result
		var err error
		if workers == 1 {
			res, err = Enumerate(context.Background(), figure10Prog(), order.Relaxed(), opts)
		} else {
			res, err = EnumerateParallel(context.Background(), figure10Prog(), order.Relaxed(), opts, workers)
		}
		if err == nil {
			t.Fatalf("workers=%d: budget run completed exhaustively", workers)
		}
		if res.Incomplete == nil {
			t.Fatalf("workers=%d: no Incomplete report: %v", workers, err)
		}
		if len(res.Incomplete.Metrics) == 0 {
			t.Errorf("workers=%d: Incomplete report has no metrics snapshot", workers)
		}
		if got := res.Incomplete.Metrics["enum_states_explored_total"]; got != 5 {
			t.Errorf("workers=%d: snapshot explored = %d, want 5", workers, got)
		}
	}
}

// TestCheckpointEmbedsMetrics: checkpoints written from an instrumented
// run embed the snapshot (and Resume ignores it).
func TestCheckpointEmbedsMetrics(t *testing.T) {
	met := telemetry.NewEnumMetrics(nil)
	opts := Options{MaxBehaviors: 5, Metrics: met}
	res, err := Enumerate(context.Background(), figure10Prog(), order.Relaxed(), opts)
	if err == nil || res.Incomplete == nil {
		t.Fatalf("budget run did not stop early: %v", err)
	}
	ckpt := res.Checkpoint(figure10Prog(), opts)
	if len(ckpt.Metrics) == 0 {
		t.Fatal("checkpoint has no metrics snapshot")
	}
	res2, err := Resume(context.Background(), figure10Prog(), order.Relaxed(), Options{}, ckpt, 1)
	if err != nil {
		t.Fatalf("resume from metric-bearing checkpoint: %v", err)
	}
	full, err := Enumerate(context.Background(), figure10Prog(), order.Relaxed(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Executions) != len(full.Executions) {
		t.Errorf("resume found %d behaviors, full run %d", len(res2.Executions), len(full.Executions))
	}
}
