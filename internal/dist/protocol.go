// Package dist is the fault-tolerant distributed enumeration layer: a
// coordinator partitions the behavior tree into replayable-path shards
// (core.PartitionFrontier) and hands them to worker processes over a
// small HTTP/JSON protocol, with each shard held exactly while its
// owner's heartbeats say it is live, capped-exponential retry with
// jitter on every worker→coordinator call, idempotent result submission
// keyed by shard ID, and a batched dedup-fingerprint exchange. When
// workers are lost past a deadline the coordinator degrades to a
// structured core.Incomplete report whose frontier is the unfinished
// shards.
//
// The protocol is deliberately minimal — five POST endpoints carrying
// JSON bodies, stdlib only, mirroring internal/telemetry's server
// idioms. Everything the worker needs to reproduce the computation
// (test, model, options) travels in the registration response, and the
// coordinator validates the worker's program hash so a version- or
// flag-skewed worker is rejected instead of silently corrupting the
// merge.
package dist

import (
	"fmt"
	"strings"

	"storeatomicity/internal/cli"
	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/telemetry"
)

// Protocol endpoints (all POST, JSON request/response bodies, except
// the GET observability endpoints: /status serves the run ledger,
// /journal the NDJSON event tail, /metrics the Prometheus exposition).
const (
	PathRegister  = "/register"
	PathLease     = "/lease"
	PathHeartbeat = "/heartbeat"
	PathComplete  = "/complete"
	PathStatus    = "/status"
	PathJournal   = "/journal"
	PathMetrics   = "/metrics"
)

// JobSpec describes the enumeration a coordinator is running, in the
// registry vocabulary (test and model names) so it serializes cleanly.
type JobSpec struct {
	// Test names a litmus.Registry entry.
	Test string `json:"test"`
	// Model names a litmus.Models entry ("Relaxed", "TSO", ...).
	Model string `json:"model"`
	// ProgramHash is the canonical request fingerprint
	// (core.ProgramFingerprint over model + built program + behavior-set
	// options — the same key internal/serve memoizes by); a worker whose
	// build disagrees is refused (version skew).
	ProgramHash uint64 `json:"program_hash"`
	// Prune and COW name the removed -prune and -cow flags, which
	// ProgramHash leaves out: Resolve refuses any value but the one
	// configuration ("", "all" or cli.PruneAll; "" or "on").
	Prune string `json:"prune,omitempty"`
	COW   string `json:"cow,omitempty"`
	// DedupMem carries the -dedup-mem grammar (cli.ApplyDedupMem).
	DedupMem string `json:"dedup_mem,omitempty"`
	// FrontierResident carries the -frontier-resident grammar
	// (cli.ApplyFrontierResident): the resident-frontier byte budget each
	// worker runs its shards under. Empty means off — NOT auto — so specs
	// serialized by pre-frontier coordinators resolve to the engine they
	// were built against.
	FrontierResident string `json:"frontier_resident,omitempty"`
	// MaxNodes/MaxBehaviors bound each shard run (0 = engine default).
	MaxNodes     int `json:"max_nodes,omitempty"`
	MaxBehaviors int `json:"max_behaviors,omitempty"`
}

// Resolve materializes the spec: the litmus test, the model, and the
// engine options (with Speculative forced by the model, like
// litmus.RunContext).
func (j *JobSpec) Resolve() (*litmus.Test, litmus.Model, core.Options, error) {
	var opts core.Options
	t, ok := litmus.ByName(j.Test)
	if !ok {
		return nil, litmus.Model{}, opts, fmt.Errorf("dist: unknown test %q", j.Test)
	}
	m, ok := litmus.ModelByName(j.Model)
	if !ok {
		return nil, litmus.Model{}, opts, fmt.Errorf("dist: unknown model %q", j.Model)
	}
	if err := cli.ApplyPrune(&opts, j.Prune); err != nil {
		return nil, litmus.Model{}, opts, fmt.Errorf("dist: job spec: %w", err)
	}
	if cow := strings.TrimSpace(j.COW); cow != "" && cow != "on" {
		return nil, litmus.Model{}, opts, fmt.Errorf("dist: job spec: cow %q: the -cow flag was removed; every run forks copy-on-write", j.COW)
	}
	ef := cli.EngineFlags{DedupMem: j.DedupMem, FrontierResident: j.FrontierResident}
	if err := ef.Apply(&opts); err != nil {
		return nil, litmus.Model{}, opts, fmt.Errorf("dist: job spec: %w", err)
	}
	opts.MaxNodes = j.MaxNodes
	opts.MaxBehaviors = j.MaxBehaviors
	opts.Speculative = m.Speculative
	return t, m, opts, nil
}

// RegisterRequest announces a worker.
type RegisterRequest struct {
	Worker      string `json:"worker"`
	ProgramHash uint64 `json:"program_hash,omitempty"`
}

// RegisterResponse hands the worker its job, its heartbeat interval (a
// worker silent past 3 of them is lost and its shards are requeued), and
// the run ID every journal event and trace must carry.
type RegisterResponse struct {
	Job             JobSpec `json:"job"`
	HeartbeatMillis int64   `json:"heartbeat_ms"`
	// RunID is the coordinator's authoritative run identity; workers
	// stamp it on their journals and traces so N processes' output
	// merges into one timeline.
	RunID string `json:"run_id,omitempty"`
}

// LeaseRequest asks for a shard. FpSeq is the index into the
// coordinator's fingerprint log the worker has already consumed, so the
// exchange ships only fresh batches.
type LeaseRequest struct {
	Worker string `json:"worker"`
	FpSeq  int    `json:"fp_seq"`
	// ProgramHash re-states the worker's program on every lease, so a
	// stale worker that registered with an earlier coordinator (say,
	// after a restart on the same port) cannot pull shards for a program
	// it does not have. Zero skips the check (old workers).
	ProgramHash uint64 `json:"program_hash,omitempty"`
}

// LeaseResponse grants a shard, asks the worker to wait, or announces
// completion.
type LeaseResponse struct {
	// Done: every shard is accounted for; the worker should exit.
	Done bool `json:"done,omitempty"`
	// Wait: nothing grantable right now (all leased), retry after
	// RetryMillis.
	Wait        bool  `json:"wait,omitempty"`
	RetryMillis int64 `json:"retry_ms,omitempty"`
	// Shard identifies the granted work unit; Path replays to it.
	Shard int             `json:"shard"`
	Path  []core.PathStep `json:"path"`
	// Fingerprints is the fresh slice of the dedup exchange log
	// starting at the worker's FpSeq; FpNext is the new consumed index.
	Fingerprints []uint64 `json:"fingerprints,omitempty"`
	FpNext       int      `json:"fp_next"`
	// SpanID identifies this lease attempt ("run/s<shard>/a<attempt>").
	// The worker stamps it on its journal events and trace spans and
	// echoes it in CompleteRequest, so one attempt correlates across
	// coordinator and worker output.
	SpanID string `json:"span_id,omitempty"`
	// Attempt is the shard's 1-based lease attempt count.
	Attempt int `json:"attempt,omitempty"`
}

// HeartbeatRequest keeps a worker live, and so keeps every shard it
// holds; any other call counts as contact too. Metrics piggybacks a
// compact snapshot of the worker's counters; the coordinator folds the
// live fleet's snapshots into the dist_fleet_* aggregation series.
type HeartbeatRequest struct {
	Worker  string             `json:"worker"`
	Metrics telemetry.Snapshot `json:"metrics,omitempty"`
}

// HeartbeatResponse acknowledges; Done tells the worker the run is over.
type HeartbeatResponse struct {
	Done bool `json:"done,omitempty"`
}

// CompleteRequest submits a shard's results. Idempotent by Shard: the
// first submission wins, later ones are acknowledged as duplicates.
type CompleteRequest struct {
	Worker string `json:"worker"`
	Shard  int    `json:"shard"`
	// ProgramHash guards the merge the same way LeaseRequest's does: a
	// submission built from a different program is refused, not merged.
	ProgramHash uint64 `json:"program_hash,omitempty"`
	// Completed holds the replayable path of every behavior the shard
	// found (for the coordinator's merge).
	Completed [][]core.PathStep `json:"completed"`
	// Fingerprints exports the shard's dedup seen-set for the exchange
	// (clean completions only).
	Fingerprints   []uint64 `json:"fingerprints,omitempty"`
	StatesExplored int      `json:"states_explored"`
	// Incomplete reports a shard that stopped early (budget, panic).
	// The coordinator latches it and degrades the final result.
	Incomplete *core.Incomplete `json:"incomplete,omitempty"`
	// SpanID echoes the lease's span ID, closing the cross-process
	// correlation loop for this attempt.
	SpanID string `json:"span_id,omitempty"`
}

// CompleteResponse acknowledges a submission.
type CompleteResponse struct {
	OK bool `json:"ok"`
	// Duplicate: this shard was already completed (by this worker after
	// it was declared lost, or by a reassigned peer); the submission was
	// discarded without double-counting.
	Duplicate bool `json:"duplicate,omitempty"`
}

// ShardLedger is one row of the /status shard table.
type ShardLedger struct {
	ID       int    `json:"id"`
	State    string `json:"state"` // queued | leased | done
	Owner    string `json:"owner,omitempty"`
	Attempts int    `json:"attempts"`
	// Span is the current (or final) attempt's span ID.
	Span string `json:"span,omitempty"`
	// Behaviors/Explored/LatencyMs are filled once the shard is done.
	Behaviors int   `json:"behaviors,omitempty"`
	Explored  int   `json:"explored,omitempty"`
	LatencyMs int64 `json:"latency_ms,omitempty"`
}

// WorkerLedger is one row of the /status worker table.
type WorkerLedger struct {
	ID string `json:"id"`
	// State is live, missed (silent past 2 heartbeats), or lost
	// (silent past 3 heartbeats; its shards are back in the queue).
	State string `json:"state"`
	// LastSeenMs is milliseconds since the worker's last contact.
	LastSeenMs int64 `json:"last_seen_ms"`
	ShardsDone int   `json:"shards_done"`
	// Retries/Explored come from the worker's heartbeat snapshot.
	Retries  int64 `json:"retries,omitempty"`
	Explored int64 `json:"explored,omitempty"`
}

// LatencySummary carries estimated shard-latency quantiles.
type LatencySummary struct {
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// StatusResponse is the coordinator's public progress snapshot — since
// PR 8, a full run ledger: the original counters plus per-shard and
// per-worker tables, the degradation reason, and shard-latency
// quantiles. The original fields keep their names so pre-ledger
// clients still parse it.
type StatusResponse struct {
	Shards    int  `json:"shards"`
	Completed int  `json:"completed"`
	Pending   int  `json:"pending"`
	Workers   int  `json:"workers"`
	Done      bool `json:"done"`
	Degraded  bool `json:"degraded"`

	RunID          string          `json:"run_id,omitempty"`
	DegradedReason string          `json:"degraded_reason,omitempty"`
	ShardTable     []ShardLedger   `json:"shard_table,omitempty"`
	WorkerTable    []WorkerLedger  `json:"worker_table,omitempty"`
	ShardLatency   *LatencySummary `json:"shard_latency,omitempty"`
}
