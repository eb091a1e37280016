package core

import (
	"context"
	"reflect"

	"runtime"
	"strings"
	"testing"
	"time"

	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
	"storeatomicity/internal/randprog"
	"storeatomicity/internal/telemetry"
)

// figure10Prog builds Figure 10 for parallel-vs-sequential comparisons.
func figure10Prog() *program.Program {
	b := program.NewBuilder()
	b.Thread("A").
		StoreL("S1", program.X, 1).StoreL("S2", program.X, 2).StoreL("S3", program.Z, 3).
		LoadL("L4", 1, program.Z).LoadL("L6", 2, program.Y)
	b.Thread("B").
		StoreL("S5", program.Y, 5).StoreL("S7", program.Y, 7).StoreL("S8", program.Z, 8).
		LoadL("L9", 3, program.Z).LoadL("L10", 4, program.X)
	return b.Build()
}

// TestParallelMatchesSequential: identical behavior sets on a nontrivial
// program, across models and worker counts.
func TestParallelMatchesSequential(t *testing.T) {
	for _, pol := range []order.Policy{order.SC(), order.TSO(), order.Relaxed()} {
		seq, err := Enumerate(context.Background(), figure10Prog(), pol, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{}
		for _, e := range seq.Executions {
			want[e.SourceKey()] = true
		}
		for _, workers := range []int{2, 4, 0} {
			par, err := EnumerateParallel(context.Background(), figure10Prog(), pol, Options{}, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", pol.Name(), workers, err)
			}
			got := map[string]bool{}
			for _, e := range par.Executions {
				got[e.SourceKey()] = true
			}
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d behaviors, want %d", pol.Name(), workers, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Errorf("%s workers=%d: missing behavior %q", pol.Name(), workers, k)
				}
			}
		}
	}
}

// TestParallelDeterministicOrder: results are canonically sorted, so two
// parallel runs agree element-wise.
func TestParallelDeterministicOrder(t *testing.T) {
	a, err := EnumerateParallel(context.Background(), figure10Prog(), order.Relaxed(), Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EnumerateParallel(context.Background(), figure10Prog(), order.Relaxed(), Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Executions) != len(b.Executions) {
		t.Fatalf("%d vs %d executions", len(a.Executions), len(b.Executions))
	}
	for i := range a.Executions {
		if a.Executions[i].SourceKey() != b.Executions[i].SourceKey() {
			t.Errorf("position %d differs", i)
		}
	}
}

// TestParallelSingleWorkerDelegates: workers=1 is exactly Enumerate.
func TestParallelSingleWorkerDelegates(t *testing.T) {
	seq, err := Enumerate(context.Background(), sbProgram(), order.SC(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := EnumerateParallel(context.Background(), sbProgram(), order.SC(), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Stats, par.Stats) {
		t.Errorf("single-worker stats diverge: %+v vs %+v", seq.Stats, par.Stats)
	}
}

// TestWidthOneContracts pins what width 1 promises beyond the behavior
// set: a MaxBehaviors stop is exact and repeats exactly — the same
// Incomplete frontier, in the same order, whether or not every queued
// state is demoted — nothing is stolen, the resident peak is exact, and
// the live frontier_resident_bytes gauge tracks the queue.
func TestWidthOneContracts(t *testing.T) {
	const budget = 40
	var first *Result
	var firstLive int64
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"resident", Options{MaxBehaviors: budget}},
		{"resident again", Options{MaxBehaviors: budget}},
		{"demoted", Options{MaxBehaviors: budget, FrontierResidentBytes: 1}},
	} {
		met := telemetry.NewEnumMetrics(nil)
		tc.opts.Metrics = met
		res, err := Enumerate(context.Background(), figure10Prog(), order.Relaxed(), tc.opts)
		if res == nil || res.Incomplete == nil || res.Incomplete.Reason != ReasonMaxBehaviors {
			t.Fatalf("%s: err = %v, want a MaxBehaviors stop", tc.name, err)
		}
		if res.Stats.StatesExplored != budget || res.Stats.Steals != 0 || res.Stats.Workers != 1 {
			t.Errorf("%s: explored %d, steals %d, workers %d; want %d, 0, 1",
				tc.name, res.Stats.StatesExplored, res.Stats.Steals, res.Stats.Workers, budget)
		}
		// Resident runs stop with resident states queued; the 1-byte
		// budget has demoted all of them, so its gauge reads lower.
		live := met.FrontierResident.Value()
		if demoted := tc.opts.FrontierResidentBytes > 0; (live <= 0) != demoted ||
			demoted && (res.Stats.FrontierDemoted == 0 || live >= firstLive) {
			t.Errorf("%s: frontier_resident_bytes = %d (resident run %d), %d states demoted",
				tc.name, live, firstLive, res.Stats.FrontierDemoted)
		}
		if got := met.FrontierResidentPeak.Value(); got != res.Stats.FrontierResidentPeak {
			t.Errorf("%s: frontier_resident_peak_bytes = %d, Stats says %d", tc.name, got, res.Stats.FrontierResidentPeak)
		}
		if first == nil {
			first, firstLive = res, live
			continue
		}
		if !reflect.DeepEqual(res.Incomplete.Frontier, first.Incomplete.Frontier) {
			t.Errorf("%s: Incomplete.Frontier differs from the first run's", tc.name)
		}
		if keysOf(res) != keysOf(first) {
			t.Errorf("%s: partial behavior set differs from the first run's", tc.name)
		}
		if tc.opts.FrontierResidentBytes == 0 && !reflect.DeepEqual(res.Stats, first.Stats) {
			t.Errorf("%s: stats differ between identical runs: %+v vs %+v", tc.name, res.Stats, first.Stats)
		}
	}
}

// BenchmarkEnumSmallWidthOne measures the per-call cost of a width-1
// enumeration — engine setup, sets, pool, result assembly — over a few
// small random programs under a cancellable context, the shape of a
// corpus sweep or a service miss.
func BenchmarkEnumSmallWidthOne(b *testing.B) {
	var progs []*program.Program
	for seed := int64(0); seed < 8; seed++ {
		progs = append(progs, randprog.Generate(randprog.Config{Seed: seed, Threads: 2, Ops: 3}))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Enumerate(ctx, progs[i%len(progs)], order.TSO(), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParallelBudget: the behavior budget still trips.
func TestParallelBudget(t *testing.T) {
	_, err := EnumerateParallel(context.Background(), figure10Prog(), order.Relaxed(), Options{MaxBehaviors: 3}, 4)
	if err == nil || !strings.Contains(err.Error(), "behavior budget") {
		t.Errorf("err = %v", err)
	}
}

// TestParallelBudgetNoLeak: exhausting MaxBehaviors with many workers
// must wake every parked worker and return — a worker left waiting on
// the idle condition would deadlock this test (and leak under -race).
// Run repeatedly to give the error path a chance to race with parking.
func TestParallelBudgetNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		for _, budget := range []int{1, 2, 5, 20} {
			_, err := EnumerateParallel(context.Background(), figure10Prog(), order.Relaxed(), Options{MaxBehaviors: budget}, 8)
			if err == nil || !strings.Contains(err.Error(), "behavior budget") {
				t.Fatalf("budget=%d: err = %v", budget, err)
			}
		}
	}
	// All workers joined before EnumerateParallel returns (wg.Wait), so
	// any sustained goroutine growth means a leaked waiter.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestParallelStats: fork/dup/steal counters are merged across workers
// and agree with the sequential engine where determinism allows.
func TestParallelStats(t *testing.T) {
	seq, err := Enumerate(context.Background(), figure10Prog(), order.Relaxed(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := EnumerateParallel(context.Background(), figure10Prog(), order.Relaxed(), Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Dedup outcomes are schedule-dependent in the parallel engine (two
	// workers can both explore a state the other would have deduped),
	// but every explored state is accounted for.
	if par.Stats.StatesExplored < len(par.Executions) {
		t.Errorf("explored %d < %d executions", par.Stats.StatesExplored, len(par.Executions))
	}
	if len(par.Executions) != len(seq.Executions) {
		t.Errorf("parallel %d executions, sequential %d", len(par.Executions), len(seq.Executions))
	}
}

// TestParallelSpeculation: rollbacks work concurrently (Figure 8 under
// speculation).
func TestParallelSpeculation(t *testing.T) {
	b := program.NewBuilder()
	b.Init(program.W, 0)
	b.Init(program.Z, 0)
	b.Thread("A").
		StoreL("S1", program.X, program.AddrValue(program.W)).Fence().
		StoreL("S2", program.Y, 2).StoreL("S4", program.Y, 4).Fence().
		StoreL("S5", program.X, program.AddrValue(program.Z))
	b.Thread("B").
		LoadL("L3", 1, program.Y).Fence().
		LoadL("L6", 6, program.X).StoreIndL("S7", 6, 7).LoadL("L8", 8, program.Y)
	p := b.Build()

	seq, err := Enumerate(context.Background(), p, order.Relaxed(), Options{Speculative: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := EnumerateParallel(context.Background(), p, order.Relaxed(), Options{Speculative: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Executions) != len(par.Executions) {
		t.Errorf("speculative parallel found %d executions, sequential %d",
			len(par.Executions), len(seq.Executions))
	}
}
