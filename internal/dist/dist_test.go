package dist_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"storeatomicity/internal/core"
	"storeatomicity/internal/dist"
	"storeatomicity/internal/dist/chaos"
)

// enumSuite mirrors the benchmark suite (bench_test.go): the
// (experiment, test, model) triples the distributed headline claim
// ranges over — the merged behavior set must be bit-identical to the
// single-process engine for every entry.
var enumSuite = []struct {
	exp, test, model string
}{
	{"E2", "Figure3", "Relaxed"},
	{"E3", "Figure4", "Relaxed"},
	{"E4", "Figure5", "Relaxed"},
	{"E5", "Figure7", "Relaxed"},
	{"E6", "Figure8", "Relaxed+spec"},
	{"E7", "Figure10", "TSO"},
	{"E8", "Figure10", "Relaxed"},
	{"E9", "IRIW", "Relaxed"},
	{"E10", "MP", "Relaxed"},
	{"E11", "SB", "TSO"},
	{"E12", "LB", "Relaxed"},
	{"E13", "SB3", "Relaxed"},
	{"E14", "SB3W", "Relaxed"},
}

// oracle runs the job single-process and returns its canonical set.
// Results are memoized: every worker-count/chaos variant of an entry
// compares against the same sequential baseline.
var (
	oracleMu    sync.Mutex
	oracleCache = map[string]string{}
)

func oracle(t *testing.T, job dist.JobSpec) string {
	t.Helper()
	key := job.Test + "/" + job.Model
	oracleMu.Lock()
	defer oracleMu.Unlock()
	if want, ok := oracleCache[key]; ok {
		return want
	}
	tst, m, opts, err := job.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Enumerate(context.Background(), tst.Build(), m.Policy, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := dist.Canonical(res)
	oracleCache[key] = want
	return want
}

// startCoordinator builds and serves a coordinator, torn down with the
// test.
func startCoordinator(t *testing.T, cfg dist.Config) *dist.Coordinator {
	t.Helper()
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	c, err := dist.NewCoordinator(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestDistributedEquivalence is the headline claim, clean half: for
// every suite entry at 1, 2, and 4 workers over real HTTP, the merged
// result is bit-identical to the sequential engine.
func TestDistributedEquivalence(t *testing.T) {
	t.Parallel()
	for _, s := range enumSuite {
		for _, workers := range []int{1, 2, 4} {
			s, workers := s, workers
			t.Run(fmt.Sprintf("%s_%s_%s/w%d", s.exp, s.test, s.model, workers), func(t *testing.T) {
				t.Parallel()
				job := dist.JobSpec{Test: s.test, Model: s.model}
				c := startCoordinator(t, dist.Config{Job: job, Shards: 8, WorkerDeadline: time.Minute})

				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				var wg sync.WaitGroup
				for i := 0; i < workers; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						w := dist.NewWorker(dist.WorkerConfig{
							Coord: "http://" + c.Addr(),
							ID:    fmt.Sprintf("w%d", i),
							Seed:  int64(i + 1),
						})
						if err := w.Run(ctx); err != nil {
							t.Errorf("worker %d: %v", i, err)
						}
					}(i)
				}
				res, err := c.Wait(ctx)
				wg.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if got, want := dist.Canonical(res), oracle(t, job); got != want {
					t.Errorf("distributed set differs from sequential oracle\n got: %s\nwant: %s", got, want)
				}
				if res.Stats.StatesExplored <= 0 {
					t.Errorf("merged StatesExplored = %d", res.Stats.StatesExplored)
				}
			})
		}
	}
}

// TestDistributedEquivalenceUnderChaos is the headline claim, chaos
// half: same matrix, but workers are killed, paused, and partitioned on
// a seeded schedule while loss detection, reassignment, retry/backoff,
// and idempotent completion keep the run exact. A short heartbeat (a
// worker is lost after 150ms of silence) and a per-shard delay make
// faults land mid-shard.
func TestDistributedEquivalenceUnderChaos(t *testing.T) {
	t.Parallel()
	suite := enumSuite
	if testing.Short() {
		suite = suite[:4]
	}
	for _, s := range suite {
		for _, workers := range []int{1, 2, 4} {
			s, workers := s, workers
			t.Run(fmt.Sprintf("%s_%s_%s/w%d", s.exp, s.test, s.model, workers), func(t *testing.T) {
				t.Parallel()
				job := dist.JobSpec{Test: s.test, Model: s.model}
				c := startCoordinator(t, dist.Config{
					Job:            job,
					Shards:         8,
					Heartbeat:      50 * time.Millisecond,
					WorkerDeadline: time.Minute,
				})

				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				fleet := &chaos.Fleet{
					Base: dist.WorkerConfig{
						Coord:      "http://" + c.Addr(),
						ID:         "chaos",
						MaxRetries: 4,
						RetryBase:  10 * time.Millisecond,
						ShardDelay: 5 * time.Millisecond,
					},
					Workers: workers,
					Plan:    chaos.RandomPlan(int64(len(s.test))*100+int64(workers), workers, 800*time.Millisecond),
					Respawn: 10 * time.Millisecond,
				}
				fleetDone := make(chan error, 1)
				go func() { fleetDone <- fleet.Run(ctx) }()

				res, err := c.Wait(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if ferr := <-fleetDone; ferr != nil {
					t.Fatalf("fleet: %v", ferr)
				}
				if got, want := dist.Canonical(res), oracle(t, job); got != want {
					t.Errorf("chaos run differs from sequential oracle (plan: %v)\n got: %s\nwant: %s",
						fleet.Applied, got, want)
				}
				if fleet.Spawns < workers {
					t.Errorf("fleet spawned %d generations for %d slots", fleet.Spawns, workers)
				}
			})
		}
	}
}

// TestCoordinatorDegradesWhenFleetLost: end to end, a coordinator whose
// workers never arrive degrades to a structured Incomplete after the
// worker deadline instead of hanging.
func TestCoordinatorDegradesWhenFleetLost(t *testing.T) {
	t.Parallel()
	c := startCoordinator(t, dist.Config{
		Job:            dist.JobSpec{Test: "MP", Model: "Relaxed"},
		Shards:         4,
		Heartbeat:      10 * time.Millisecond,
		WorkerDeadline: 200 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err := c.Wait(ctx)
	var ie *core.IncompleteError
	if !errors.As(err, &ie) {
		t.Fatalf("want *core.IncompleteError, got %v", err)
	}
	if ie.Report.Reason != core.ReasonWorkersLost {
		t.Errorf("reason %q, want %q", ie.Report.Reason, core.ReasonWorkersLost)
	}
	if len(ie.Report.Frontier) == 0 {
		t.Error("degraded report carries no frontier")
	}
}

// TestRegisterRefusesProgramHashSkew: a worker announcing a different
// program hash is refused with a terminal 4xx (no retry storm), end to
// end over the wire.
func TestRegisterRefusesProgramHashSkew(t *testing.T) {
	t.Parallel()
	c := startCoordinator(t, dist.Config{
		Job:    dist.JobSpec{Test: "MP", Model: "Relaxed"},
		Shards: 2,
	})
	body := strings.NewReader(`{"worker":"skewed","program_hash":3735928559}`)
	resp, err := http.Post("http://"+c.Addr()+dist.PathRegister, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Fatalf("skewed registration got %s, want a terminal 4xx", resp.Status)
	}
}
