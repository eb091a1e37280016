package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"storeatomicity/internal/core"
	"storeatomicity/internal/obslog"
	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
	"storeatomicity/internal/telemetry"
)

// WorkerConfig tunes a worker process (or an in-process worker in the
// tests).
type WorkerConfig struct {
	// Coord is the coordinator base URL ("http://host:port").
	Coord string
	// ID names this worker in leases and logs.
	ID string
	// MaxRetries caps retries per coordinator call (default 5).
	MaxRetries int
	// RetryBase is the first backoff delay (default 50ms).
	RetryBase time.Duration
	// EngineWorkers is the per-shard engine width (default 1 =
	// sequential; the process-level parallelism is the worker fleet).
	EngineWorkers int
	// ShardDelay stretches each shard by sleeping before enumeration —
	// a test/chaos knob so kills land mid-shard (default 0).
	ShardDelay time.Duration
	// Seed seeds the backoff jitter (default 1).
	Seed int64
	// Client is the HTTP transport; injectable so the chaos harness can
	// drop or stall calls (default http.DefaultClient semantics with a
	// sane timeout).
	Client *http.Client
	// Metrics, when non-nil, receives worker-side counters
	// (dist_retries_total chief among them).
	Metrics *telemetry.DistMetrics
	// Enum, when non-nil, receives the per-shard engine counters so the
	// worker's heartbeat snapshot carries real exploration progress.
	Enum *telemetry.EnumMetrics
	// Journal, when non-nil, receives this worker's event stream. Run
	// adopts the coordinator's run ID on registration so the stream
	// merges with the fleet's.
	Journal *obslog.Journal
	// Tracer, when non-nil, records one span per shard attempt, stamped
	// with the lease's span ID for cross-process matching.
	Tracer *telemetry.Tracer
	// Snapshot, when non-nil, produces the compact metric snapshot each
	// heartbeat piggybacks (typically Registry.Snapshot of the worker's
	// registry).
	Snapshot func() telemetry.Snapshot
}

func (w WorkerConfig) withDefaults() WorkerConfig {
	if w.ID == "" {
		w.ID = "worker"
	}
	if w.MaxRetries <= 0 {
		w.MaxRetries = 5
	}
	if w.RetryBase <= 0 {
		w.RetryBase = 50 * time.Millisecond
	}
	if w.EngineWorkers <= 0 {
		w.EngineWorkers = 1
	}
	if w.Seed == 0 {
		w.Seed = 1
	}
	if w.Client == nil {
		w.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return w
}

// Worker pulls shard leases from a coordinator, enumerates each shard's
// subtree, and posts results idempotently. Every coordinator call runs
// under the capped-exponential-backoff retry discipline.
type Worker struct {
	cfg  WorkerConfig
	c    *client
	prog *program.Program
	pol  order.Policy
	opts core.Options

	heartbeatEvery time.Duration
	hash           uint64
	fpSeq          int
	seedSeen       []uint64
}

// NewWorker builds a worker; Run does the work.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	return &Worker{
		cfg: cfg,
		c: &client{
			base:    cfg.Coord,
			hc:      cfg.Client,
			backoff: NewBackoff(cfg.RetryBase, 0, cfg.MaxRetries, cfg.Seed),
			met:     cfg.Metrics,
		},
	}
}

// Run registers, heartbeats, and drains leases until the coordinator
// says Done (nil), the context ends (ctx.Err()), or retries exhaust
// (the transport error). A context cancellation mid-shard abandons the
// shard WITHOUT posting a completion: the worker falls silent, the
// coordinator declares it lost, and the shard is reassigned — the
// crash-model contract the chaos tests enforce.
func (w *Worker) Run(ctx context.Context) error {
	var reg RegisterResponse
	if err := w.c.call(ctx, PathRegister, &RegisterRequest{Worker: w.cfg.ID}, &reg); err != nil {
		return err
	}
	t, m, opts, err := reg.Job.Resolve()
	if err != nil {
		return err
	}
	w.prog, w.pol, w.opts = t.Build(), m.Policy, opts
	w.hash = core.ProgramFingerprint(reg.Job.Model, w.prog, w.opts)
	if reg.RunID != "" {
		// Adopt the coordinator's run identity: from here on this
		// worker's journal lines and trace carry the fleet's run ID, so
		// mmobs can merge N processes into one timeline.
		w.cfg.Journal.SetRun(reg.RunID)
		w.cfg.Tracer.SetMeta("run_id", reg.RunID)
	}
	w.cfg.Tracer.SetMeta("role", "worker")
	w.cfg.Journal.Emit(obslog.WorkerRegistered, obslog.Fields{Worker: w.cfg.ID})
	if w.hash != reg.Job.ProgramHash {
		return fmt.Errorf("dist: worker %s built program hash %#x, job says %#x (version skew)",
			w.cfg.ID, w.hash, reg.Job.ProgramHash)
	}
	w.heartbeatEvery = time.Duration(reg.HeartbeatMillis) * time.Millisecond
	if w.heartbeatEvery <= 0 {
		w.heartbeatEvery = time.Second
	}

	// Heartbeat loop: keeps this worker live, and so keeps the shard it
	// holds. Torn down before Run returns, so the leak gate stays clean.
	hbCtx, hbCancel := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(w.heartbeatEvery)
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
				hbReq := HeartbeatRequest{Worker: w.cfg.ID}
				if w.cfg.Snapshot != nil {
					// Piggyback the worker's compact metric snapshot; the
					// coordinator folds the live fleet's snapshots into
					// the dist_fleet_* aggregation.
					hbReq.Metrics = w.cfg.Snapshot()
				}
				var hb HeartbeatResponse
				// Heartbeat failures are not fatal by themselves — the
				// lease loop's calls decide when the coordinator is
				// truly gone.
				w.c.call(hbCtx, PathHeartbeat, &hbReq, &hb) //nolint:errcheck
			}
		}
	}()
	defer func() {
		hbCancel()
		hbWG.Wait()
	}()

	for {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		var lease LeaseResponse
		if err := w.c.call(ctx, PathLease, &LeaseRequest{Worker: w.cfg.ID, FpSeq: w.fpSeq, ProgramHash: w.hash}, &lease); err != nil {
			return err
		}
		w.ingestFingerprints(&lease)
		if lease.Done {
			return nil
		}
		if lease.Wait {
			wait := time.Duration(lease.RetryMillis) * time.Millisecond
			if wait <= 0 {
				wait = 100 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
			continue
		}
		if err := w.runShard(ctx, &lease); err != nil {
			return err
		}
	}
}

// ingestFingerprints folds a lease response's exchange batch into the
// seen-set seed for subsequent shards.
func (w *Worker) ingestFingerprints(lease *LeaseResponse) {
	if len(lease.Fingerprints) > 0 {
		w.seedSeen = append(w.seedSeen, lease.Fingerprints...)
	}
	if lease.FpNext > w.fpSeq {
		w.fpSeq = lease.FpNext
	}
}

// runShard enumerates one leased shard and posts its results. The
// engine run is seeded with the fingerprints of peers' already-merged
// shards (pure pruning; see core/partition.go) and exports its own for
// the exchange. A ctx cancellation mid-run returns the error without
// posting — the coordinator will declare the worker lost and reassign
// the shard.
func (w *Worker) runShard(ctx context.Context, lease *LeaseResponse) error {
	if d := w.cfg.ShardDelay; d > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
	}
	opts := w.opts
	opts.SeedSeen = w.seedSeen
	opts.ExportSeen = -1
	opts.Metrics = w.cfg.Enum
	opts.Journal = w.cfg.Journal
	w.cfg.Journal.EmitShard(obslog.ShardStarted, lease.Shard, obslog.Fields{
		Worker: w.cfg.ID, Span: lease.SpanID, Attempt: lease.Attempt,
	})
	started := time.Now()
	res, err := core.EnumerateShard(ctx, w.prog, w.pol, opts, lease.Path, w.cfg.EngineWorkers)
	w.cfg.Tracer.SpanArgs(fmt.Sprintf("shard %d", lease.Shard), "shard", lease.Shard, started,
		map[string]any{"span_id": lease.SpanID, "attempt": lease.Attempt})
	req := &CompleteRequest{Worker: w.cfg.ID, Shard: lease.Shard, ProgramHash: w.hash, SpanID: lease.SpanID}
	switch {
	case err == nil:
		req.Fingerprints = res.SeenExport
		w.cfg.Journal.EmitShard(obslog.ShardCompleted, lease.Shard, obslog.Fields{
			Worker: w.cfg.ID, Span: lease.SpanID, Count: len(res.Executions),
			States: res.Stats.StatesExplored, Ms: time.Since(started).Milliseconds(),
		})
	case errors.Is(err, core.ErrIncomplete):
		// A canceled shard is abandoned, not submitted: cancellation is
		// the chaos/kill path, and posting its partial frontier would
		// wrongly latch degradation for work the lease machinery will
		// simply reassign. Genuine budget stops and panics DO submit —
		// they would repeat identically on any worker, so degradation
		// is the honest outcome.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		req.Incomplete = res.Incomplete
		w.cfg.Journal.EmitShard(obslog.ShardIncomplete, lease.Shard, obslog.Fields{
			Worker: w.cfg.ID, Span: lease.SpanID, Reason: string(res.Incomplete.Reason),
			States: res.Stats.StatesExplored,
		})
	default:
		return fmt.Errorf("dist: shard %d: %w", lease.Shard, err)
	}
	req.StatesExplored = res.Stats.StatesExplored
	for _, e := range res.Executions {
		req.Completed = append(req.Completed, e.Path)
	}
	var ack CompleteResponse
	if err := w.c.call(ctx, PathComplete, req, &ack); err != nil {
		return err
	}
	return nil
}
