package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"storeatomicity/internal/core"
	"storeatomicity/internal/obslog"
	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
	"storeatomicity/internal/telemetry"
)

// Config tunes a coordinator.
type Config struct {
	// Listen is the HTTP listen address ("127.0.0.1:0" picks a free
	// port; Addr reports it).
	Listen string
	// Job describes the enumeration to distribute.
	Job JobSpec
	// Heartbeat is the interval workers are told to heartbeat at
	// (default 10s/3). It is the coordinator's one liveness clock: a
	// worker silent past 3 heartbeats is lost, and every shard it holds
	// returns to the queue.
	Heartbeat time.Duration
	// WorkerDeadline bounds how long the coordinator waits with pending
	// shards and no worker contact before degrading to an Incomplete
	// result (default 1m; <0 disables degradation).
	WorkerDeadline time.Duration
	// Shards is the partition target (default 16). The partition may
	// come back smaller when the tree is narrow.
	Shards int
	// Metrics, when non-nil, receives coordinator counters and the
	// per-shard latency histogram.
	Metrics *telemetry.DistMetrics
	// Journal, when non-nil, receives the coordinator's structured
	// event stream (shard lifecycle, worker membership, degradations)
	// and backs the GET /journal endpoint.
	Journal *obslog.Journal
	// Tracer, when non-nil, records one lease-to-completion span per
	// shard attempt on the coordinator's timeline, stamped with the
	// attempt's span ID so mmobs can match it to the worker's lane.
	Tracer *telemetry.Tracer
	// Fleet, when non-nil, aggregates the workers' heartbeat metric
	// snapshots into the fleet-wide dist_fleet_* series.
	Fleet *telemetry.FleetMetrics
	// Registry, when non-nil, is served as Prometheus text on
	// GET /metrics alongside the protocol (one port for everything).
	Registry *telemetry.Registry
	// RunID names the run; journals and traces from every process carry
	// it. Empty derives one from the clock.
	RunID string

	// now is the injectable clock for deterministic lease tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 10 * time.Second / 3
	}
	if c.WorkerDeadline == 0 {
		c.WorkerDeadline = time.Minute
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// shard state machine: queued → leased → done, with leased → queued when
// the owner is lost or registers again. done is terminal — late
// submissions for a done shard are acknowledged as duplicates, which is
// what makes reassignment safe.
type shardStatus int

const (
	shardQueued shardStatus = iota
	shardLeased
	shardDone
)

// shard is one replayable work unit and its bookkeeping.
type shard struct {
	id   int
	path []core.PathStep

	status   shardStatus
	owner    string
	leasedAt time.Time
	attempts int
	span     string // current (or final) attempt's span ID

	completed [][]core.PathStep // results, once done
	explored  int
	latencyMs int64 // lease-to-completion, once done
}

func (s shardStatus) String() string {
	switch s {
	case shardQueued:
		return "queued"
	case shardLeased:
		return "leased"
	case shardDone:
		return "done"
	}
	return fmt.Sprintf("shardStatus(%d)", int(s))
}

// worker liveness, as the sweep classifies it from heartbeat silence.
type workerState int

const (
	workerLive   workerState = iota
	workerMissed             // silent past ~2 heartbeat intervals
	workerLost               // silent past the 3-heartbeat TTL
)

func (w workerState) String() string {
	switch w {
	case workerLive:
		return "live"
	case workerMissed:
		return "missed"
	case workerLost:
		return "lost"
	}
	return fmt.Sprintf("workerState(%d)", int(w))
}

// workerInfo is the coordinator's view of one worker: last contact, the
// sweep's liveness classification, the latest heartbeat metric
// snapshot, and completion credit for the ledger.
type workerInfo struct {
	lastSeen   time.Time
	state      workerState
	snap       telemetry.Snapshot
	shardsDone int
}

// Coordinator owns the shard table and the merge. Every mutation runs
// under mu; the HTTP handlers are thin JSON shims over the typed
// methods (register/lease/heartbeat/complete), which the deterministic
// tests call directly with a fake clock.
type Coordinator struct {
	cfg  Config
	prog *program.Program
	pol  order.Policy
	opts core.Options
	met  *telemetry.DistMetrics

	ln  net.Listener
	srv *http.Server

	mu     sync.Mutex
	shards []*shard
	queue  []int // queued shard ids, FIFO
	runID  string

	workers     map[string]*workerInfo
	lastContact time.Time

	baseCompleted [][]core.PathStep // partition-time completions
	explored      int

	fpLog  []uint64
	fpSeen map[uint64]struct{}

	spillDegraded []string
	// degradedReason/Cause latch the first degradation (a lost fleet or
	// a worker-reported incomplete shard); extraFrontier carries frontier
	// paths reported by incomplete shards.
	degradedReason core.IncompleteReason
	degradedCause  error
	extraFrontier  [][]core.PathStep

	done     chan struct{}
	finished bool

	sweepStop chan struct{}
	sweepWG   sync.WaitGroup
}

// NewCoordinator resolves the job, partitions the frontier, and returns
// a coordinator ready to Start (or to drive directly in tests).
func NewCoordinator(ctx context.Context, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	t, m, opts, err := cfg.Job.Resolve()
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		pol:     m.Policy,
		opts:    opts,
		met:     cfg.Metrics,
		workers: map[string]*workerInfo{},
		fpSeen:  map[uint64]struct{}{},
		done:    make(chan struct{}),
	}
	c.runID = cfg.RunID
	if c.runID == "" {
		// Derived from the (injectable) clock, so fake-clock tests get
		// a deterministic run identity.
		c.runID = fmt.Sprintf("r%08x", uint32(cfg.now().UnixNano()))
	}
	c.cfg.Journal.SetRun(c.runID)
	c.cfg.Tracer.SetMeta("run_id", c.runID)
	c.cfg.Tracer.SetMeta("role", "coordinator")
	c.prog = t.Build()
	c.cfg.Job.ProgramHash = core.ProgramFingerprint(cfg.Job.Model, c.prog, c.opts)
	c.cfg.Journal.Emit(obslog.RunStarted, obslog.Fields{
		Detail: fmt.Sprintf("%s/%s", cfg.Job.Test, cfg.Job.Model),
	})
	part, err := core.PartitionFrontier(ctx, c.prog, c.pol, c.opts, cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("dist: partition: %w", err)
	}
	c.baseCompleted = part.Completed
	c.explored = part.StatesExplored
	for i, path := range part.Shards {
		c.shards = append(c.shards, &shard{id: i, path: path})
		c.queue = append(c.queue, i)
	}
	c.lastContact = cfg.now()
	if c.met != nil {
		c.met.ShardsTotal.Set(int64(len(c.shards)))
	}
	c.cfg.Journal.Emit(obslog.RunPartitioned, obslog.Fields{
		Count: len(c.shards), States: part.StatesExplored,
	})
	if len(c.shards) == 0 {
		// The whole tree completed during partitioning; nothing to
		// distribute.
		c.finish()
	}
	return c, nil
}

// RunID returns the run identity stamped on every journal event and
// trace of this run.
func (c *Coordinator) RunID() string { return c.runID }

// Start binds the listener, serves the protocol, and runs the liveness
// sweeper until Close.
func (c *Coordinator) Start() error {
	ln, err := net.Listen("tcp", c.cfg.Listen)
	if err != nil {
		return fmt.Errorf("dist: listen %s: %w", c.cfg.Listen, err)
	}
	c.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc(PathRegister, handleJSON(c.handleRegister))
	mux.HandleFunc(PathLease, handleJSON(c.handleLease))
	mux.HandleFunc(PathHeartbeat, handleJSON(c.handleHeartbeat))
	mux.HandleFunc(PathComplete, handleJSON(c.handleComplete))
	mux.HandleFunc(PathStatus, func(w http.ResponseWriter, _ *http.Request) {
		st := c.Status()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&st) //nolint:errcheck
	})
	mux.HandleFunc(PathJournal, func(w http.ResponseWriter, r *http.Request) {
		// NDJSON tail of the coordinator's event journal. ?n bounds the
		// line count (default: the whole retained ring).
		n := 0
		if v := r.URL.Query().Get("n"); v != "" {
			fmt.Sscanf(v, "%d", &n) //nolint:errcheck
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		c.cfg.Journal.WriteTail(w, n) //nolint:errcheck
	})
	if c.cfg.Registry != nil {
		mux.HandleFunc(PathMetrics, func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			c.cfg.Registry.WritePrometheus(w)
		})
	}
	c.srv = &http.Server{Handler: mux}
	go c.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close

	c.sweepStop = make(chan struct{})
	c.sweepWG.Add(1)
	go func() {
		defer c.sweepWG.Done()
		t := time.NewTicker(max(c.cfg.Heartbeat/2, time.Millisecond))
		defer t.Stop()
		for {
			select {
			case <-c.sweepStop:
				return
			case <-t.C:
				c.sweep(c.cfg.now())
			}
		}
	}()
	return nil
}

// Addr returns the bound listen address (with the resolved port).
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Close tears the server and sweeper down. Safe to call after a Wait.
func (c *Coordinator) Close() error {
	if c.sweepStop != nil {
		close(c.sweepStop)
		c.sweepWG.Wait()
		c.sweepStop = nil
	}
	if c.srv != nil {
		c.srv.SetKeepAlivesEnabled(false)
		err := c.srv.Close()
		c.srv = nil
		return err
	}
	return nil
}

// handleJSON adapts a typed request/response method to an HTTP handler.
func handleJSON[Req, Resp any](f func(*Req) (*Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := f(&req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp) //nolint:errcheck
	}
}

// touch records worker contact, reviving a missed/lost classification
// (a late worker that comes back is live again — its leases may be
// gone, but its calls are honest). Caller holds mu.
func (c *Coordinator) touch(worker string) *workerInfo {
	now := c.cfg.now()
	wi, known := c.workers[worker]
	if !known {
		wi = &workerInfo{}
		c.workers[worker] = wi
	}
	revived := !known || wi.state == workerLost
	wi.lastSeen, wi.state = now, workerLive
	c.lastContact = now
	if revived {
		c.publishLiveLocked()
	}
	return wi
}

// publishLiveLocked sets dist_workers_live to the number of workers the
// sweep has not declared lost. Caller holds mu.
func (c *Coordinator) publishLiveLocked() {
	if c.met == nil {
		return
	}
	live := 0
	for _, wi := range c.workers {
		if wi.state != workerLost {
			live++
		}
	}
	c.met.WorkersLive.Set(int64(live))
}

// requeueLocked returns every shard worker holds to the queue: the
// worker was declared lost, or registered again (a restarted process
// holds nothing). Caller holds mu.
func (c *Coordinator) requeueLocked(worker string) {
	for _, sh := range c.shards {
		if sh.status != shardLeased || sh.owner != worker {
			continue
		}
		sh.status, sh.owner = shardQueued, ""
		c.queue = append(c.queue, sh.id)
		if c.met != nil {
			c.met.LeasesExpired.Inc(0)
		}
		c.cfg.Journal.EmitShard(obslog.ShardLeaseExpired, sh.id, obslog.Fields{
			Worker: worker, Span: sh.span, Attempt: sh.attempts,
		})
		c.cfg.Journal.EmitShard(obslog.ShardRequeued, sh.id, obslog.Fields{
			Attempt: sh.attempts,
		})
	}
}

// updateFleetLocked recomputes the dist_fleet_* aggregation from the
// live workers' latest heartbeat snapshots. Caller holds mu.
func (c *Coordinator) updateFleetLocked() {
	if c.cfg.Fleet == nil {
		return
	}
	var snaps []telemetry.Snapshot
	for _, id := range c.workerIDsLocked() {
		if wi := c.workers[id]; wi.state == workerLive && wi.snap != nil {
			snaps = append(snaps, wi.snap)
		}
	}
	c.cfg.Fleet.Update(snaps)
}

// workerIDsLocked returns the known worker IDs in sorted order: whatever
// a loop over workers emits (journal events, ledger rows, the fleet
// aggregate) must not depend on map iteration order. Caller holds mu.
func (c *Coordinator) workerIDsLocked() []string {
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// checkHash refuses program-hash skew: a worker built from different
// source — or one still talking to this port from a previous run —
// would merge garbage silently. Zero (an old worker not stating its
// hash) skips the check. Caller holds mu.
func (c *Coordinator) checkHash(worker string, hash uint64) error {
	if hash != 0 && hash != c.cfg.Job.ProgramHash {
		return fmt.Errorf("dist: worker %s program hash %#x does not match job %#x (version skew?)",
			worker, hash, c.cfg.Job.ProgramHash)
	}
	return nil
}

// handleRegister admits a worker.
func (c *Coordinator) handleRegister(req *RegisterRequest) (*RegisterResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkHash(req.Worker, req.ProgramHash); err != nil {
		return nil, err
	}
	if _, known := c.workers[req.Worker]; !known {
		c.cfg.Journal.Emit(obslog.WorkerRegistered, obslog.Fields{Worker: req.Worker})
	} else {
		// Same ID registering again: a restart of a worker we already
		// met. The new process holds nothing, so the old one's shards go
		// back to the queue now; its heartbeats would keep them held.
		c.cfg.Journal.Emit(obslog.WorkerRespawned, obslog.Fields{Worker: req.Worker})
		c.requeueLocked(req.Worker)
	}
	c.touch(req.Worker)
	return &RegisterResponse{
		Job:             c.cfg.Job,
		HeartbeatMillis: c.cfg.Heartbeat.Milliseconds(),
		RunID:           c.runID,
	}, nil
}

// handleLease grants the oldest queued shard, or tells the worker to
// wait (all leased) or exit (run over). The response piggybacks the
// fresh slice of the fingerprint-exchange log.
func (c *Coordinator) handleLease(req *LeaseRequest) (*LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkHash(req.Worker, req.ProgramHash); err != nil {
		return nil, err
	}
	c.touch(req.Worker)
	resp := &LeaseResponse{FpNext: req.FpSeq}
	// Batch of the exchange log the worker has not seen yet: at most
	// 8192 fingerprints, so the log is consumed across successive leases.
	if req.FpSeq >= 0 && req.FpSeq < len(c.fpLog) {
		end := min(req.FpSeq+8192, len(c.fpLog))
		resp.Fingerprints = append([]uint64(nil), c.fpLog[req.FpSeq:end]...)
		resp.FpNext = end
		if c.met != nil {
			c.met.Fingerprints.Add(0, int64(len(resp.Fingerprints)))
		}
	}
	if c.finished {
		resp.Done = true
		return resp, nil
	}
	if len(c.queue) == 0 {
		resp.Wait = true
		resp.RetryMillis = c.cfg.Heartbeat.Milliseconds()
		if resp.RetryMillis < 1 {
			resp.RetryMillis = 1
		}
		return resp, nil
	}
	id := c.queue[0]
	c.queue = c.queue[1:]
	sh := c.shards[id]
	sh.status, sh.owner, sh.leasedAt = shardLeased, req.Worker, c.cfg.now()
	sh.attempts++
	sh.span = spanID(c.runID, sh.id, sh.attempts)
	if c.met != nil {
		c.met.LeasesGranted.Inc(0)
	}
	c.cfg.Journal.EmitShard(obslog.ShardLeased, sh.id, obslog.Fields{
		Worker: req.Worker, Span: sh.span, Attempt: sh.attempts,
	})
	resp.Shard = sh.id
	resp.Path = sh.path
	resp.SpanID = sh.span
	resp.Attempt = sh.attempts
	return resp, nil
}

// spanID names one lease attempt of one shard. The coordinator stamps
// it on the lease, the worker echoes it on every event and trace span
// of the attempt, and mmobs matches the two lanes by it.
func spanID(run string, shard, attempt int) string {
	return fmt.Sprintf("%s/s%d/a%d", run, shard, attempt)
}

// handleHeartbeat records that the worker is live (and so keeps every
// shard it holds) and stores its metric snapshot.
func (c *Coordinator) handleHeartbeat(req *HeartbeatRequest) (*HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wi := c.touch(req.Worker)
	if req.Metrics != nil {
		wi.snap = req.Metrics
		c.updateFleetLocked()
	}
	if c.met != nil {
		c.met.Heartbeats.Inc(0)
	}
	return &HeartbeatResponse{Done: c.finished}, nil
}

// handleComplete ingests a shard result, idempotently: the first
// submission for a shard wins — whether from the current lease holder,
// a previous holder finishing after it was declared lost, or a
// reassigned peer — and every later one is acknowledged as a duplicate
// without double-counting. Fingerprints enter the exchange log only
// from clean completions (an incomplete shard's subtree is not fully
// explored, so its fingerprints must not suppress exploration
// elsewhere).
func (c *Coordinator) handleComplete(req *CompleteRequest) (*CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkHash(req.Worker, req.ProgramHash); err != nil {
		return nil, err
	}
	wi := c.touch(req.Worker)
	if req.Shard < 0 || req.Shard >= len(c.shards) {
		return nil, fmt.Errorf("dist: complete for unknown shard %d", req.Shard)
	}
	sh := c.shards[req.Shard]
	if sh.status == shardDone {
		if c.met != nil {
			c.met.Duplicates.Inc(0)
		}
		c.cfg.Journal.EmitShard(obslog.ShardDuplicate, sh.id, obslog.Fields{
			Worker: req.Worker, Span: req.SpanID,
		})
		return &CompleteResponse{OK: true, Duplicate: true}, nil
	}
	// A late completion from a lost owner may find the shard back
	// on the queue (or even re-leased): the work is identical either
	// way — paths replay deterministically — so first-wins is safe, and
	// the queue entry is dropped.
	if sh.status == shardQueued {
		for i, id := range c.queue {
			if id == req.Shard {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				break
			}
		}
	}
	sh.status = shardDone
	sh.completed = req.Completed
	sh.explored = req.StatesExplored
	c.explored += req.StatesExplored
	wi.shardsDone++
	// The submission may carry an older attempt's span (a slow previous
	// holder beating the reassignee); credit that attempt, not the
	// current lease's.
	if req.SpanID != "" {
		sh.span = req.SpanID
	}
	if !sh.leasedAt.IsZero() {
		sh.latencyMs = c.cfg.now().Sub(sh.leasedAt).Milliseconds()
		c.cfg.Tracer.SpanArgs("shard", "shard", sh.id, sh.leasedAt,
			map[string]any{"span_id": sh.span, "worker": req.Worker})
	}
	if c.met != nil {
		c.met.ShardsDone.Inc(0)
		if !sh.leasedAt.IsZero() {
			c.met.ShardNs.Observe(c.cfg.now().Sub(sh.leasedAt).Nanoseconds())
		}
	}
	if req.Incomplete != nil {
		rep := req.Incomplete
		c.cfg.Journal.EmitShard(obslog.ShardIncomplete, sh.id, obslog.Fields{
			Worker: req.Worker, Span: sh.span, Reason: string(rep.Reason),
			States: rep.StatesExplored, Count: rep.StatesPending,
		})
		c.degrade(rep.Reason, fmt.Errorf("dist: shard %d on worker %s: %w",
			req.Shard, req.Worker, &core.IncompleteError{Report: rep}))
		c.extraFrontier = append(c.extraFrontier, rep.Frontier...)
		c.spillDegraded = append(c.spillDegraded, rep.SpillDegraded...)
	} else {
		c.cfg.Journal.EmitShard(obslog.ShardCompleted, sh.id, obslog.Fields{
			Worker: req.Worker, Span: sh.span, Count: len(req.Completed),
			States: req.StatesExplored, Ms: sh.latencyMs,
		})
		for _, h := range req.Fingerprints {
			if _, dup := c.fpSeen[h]; dup {
				continue
			}
			c.fpSeen[h] = struct{}{}
			c.fpLog = append(c.fpLog, h)
		}
	}
	c.checkFinished()
	return &CompleteResponse{OK: true}, nil
}

// degrade latches the first degradation classification. Caller holds mu.
func (c *Coordinator) degrade(reason core.IncompleteReason, cause error) {
	if c.degradedReason == "" {
		c.degradedReason, c.degradedCause = reason, cause
		c.cfg.Journal.Emit(obslog.RunDegraded, obslog.Fields{
			Reason: string(reason), Err: cause.Error(),
		})
	}
}

// checkFinished closes the done latch when every shard is accounted
// for. Caller holds mu.
func (c *Coordinator) checkFinished() {
	for _, sh := range c.shards {
		if sh.status != shardDone {
			return
		}
	}
	c.finish()
}

// finish closes the done channel once. Caller holds mu (or is the
// constructor, before any concurrency).
func (c *Coordinator) finish() {
	if !c.finished {
		c.finished = true
		c.cfg.Journal.Emit(obslog.RunFinished, obslog.Fields{
			States: c.explored, Count: len(c.shards) - c.pendingLocked(),
		})
		close(c.done)
	}
}

// sweep is the liveness reaper: it classifies every worker from its
// heartbeat silence, returns a lost worker's shards to the queue, and
// degrades a run whose fleet is silent past WorkerDeadline with shards
// still pending. Runs periodically under Start; the deterministic tests
// call it directly with a fake clock.
func (c *Coordinator) sweep(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// live → missed past 2 heartbeats, → lost past 3 (straight from live
	// when one sweep spans both). Each transition journals once; any
	// contact revives the worker (touch).
	for _, id := range c.workerIDsLocked() {
		wi := c.workers[id]
		silent := now.Sub(wi.lastSeen)
		switch {
		case wi.state != workerLost && silent > 3*c.cfg.Heartbeat:
			wi.state = workerLost
			c.cfg.Journal.Emit(obslog.WorkerLost, obslog.Fields{
				Worker: id, Ms: silent.Milliseconds(),
			})
			c.requeueLocked(id)
			c.publishLiveLocked()
			// A lost worker's stale snapshot must stop inflating the
			// fleet aggregation.
			c.updateFleetLocked()
		case wi.state == workerLive && silent > 2*c.cfg.Heartbeat:
			wi.state = workerMissed
			c.cfg.Journal.Emit(obslog.WorkerHeartbeatMissed, obslog.Fields{
				Worker: id, Ms: silent.Milliseconds(),
			})
		}
	}
	if !c.finished && c.cfg.WorkerDeadline > 0 && now.Sub(c.lastContact) > c.cfg.WorkerDeadline {
		c.degrade(core.ReasonWorkersLost, fmt.Errorf("dist: no worker contact for %v with %d shards pending",
			now.Sub(c.lastContact).Round(time.Millisecond), c.pendingLocked()))
		c.finish()
	}
}

// pendingLocked counts shards not yet done. Caller holds mu.
func (c *Coordinator) pendingLocked() int {
	n := 0
	for _, sh := range c.shards {
		if sh.status != shardDone {
			n++
		}
	}
	return n
}

// Status snapshots progress for the /status endpoint and the CLI:
// the legacy counters plus the full run ledger — one row per shard,
// one per worker, the degradation reason, and shard-latency quantiles.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	pending := c.pendingLocked()
	st := StatusResponse{
		Shards:    len(c.shards),
		Completed: len(c.shards) - pending,
		Pending:   pending,
		Workers:   len(c.workers),
		Done:      c.finished,
		Degraded:  c.degradedReason != "",
		RunID:     c.runID,
	}
	if c.degradedReason != "" {
		st.DegradedReason = string(c.degradedReason)
	}
	for _, sh := range c.shards {
		row := ShardLedger{
			ID:       sh.id,
			State:    sh.status.String(),
			Owner:    sh.owner,
			Attempts: sh.attempts,
			Span:     sh.span,
		}
		if sh.status == shardDone {
			row.Behaviors = len(sh.completed)
			row.Explored = sh.explored
			row.LatencyMs = sh.latencyMs
		}
		st.ShardTable = append(st.ShardTable, row)
	}
	for _, id := range c.workerIDsLocked() {
		wi := c.workers[id]
		row := WorkerLedger{
			ID:         id,
			State:      wi.state.String(),
			LastSeenMs: now.Sub(wi.lastSeen).Milliseconds(),
			ShardsDone: wi.shardsDone,
		}
		if wi.snap != nil {
			row.Retries = wi.snap["dist_retries_total"]
			row.Explored = wi.snap["enum_states_explored_total"]
		}
		st.WorkerTable = append(st.WorkerTable, row)
	}
	if c.met != nil && c.met.ShardNs != nil && c.met.ShardNs.Count() > 0 {
		st.ShardLatency = &LatencySummary{
			P50Ms: c.met.ShardNs.Quantile(0.50) / 1e6,
			P95Ms: c.met.ShardNs.Quantile(0.95) / 1e6,
			P99Ms: c.met.ShardNs.Quantile(0.99) / 1e6,
		}
	}
	return st
}

// Wait blocks until every shard is accounted for (or the run degrades,
// or ctx ends), then merges: partition-time completions plus every
// shard's results, folded in shard-ID order through core.MergeCompleted
// into a canonical Result that is bit-identical to a single-process
// enumeration. A degraded run returns the partial merge plus an
// *core.IncompleteError whose frontier is every pending shard's path.
func (c *Coordinator) Wait(ctx context.Context) (*core.Result, error) {
	select {
	case <-ctx.Done():
		c.mu.Lock()
		c.degrade(core.ReasonCanceled, ctx.Err())
		c.finish()
		c.mu.Unlock()
	case <-c.done:
	}

	c.mu.Lock()
	completed := append([][]core.PathStep{}, c.baseCompleted...)
	var frontier [][]core.PathStep
	for _, sh := range c.shards {
		completed = append(completed, sh.completed...)
		if sh.status != shardDone {
			frontier = append(frontier, sh.path)
		}
	}
	frontier = append(frontier, c.extraFrontier...)
	reason, cause := c.degradedReason, c.degradedCause
	explored := c.explored
	spill := c.spillDegraded
	c.mu.Unlock()

	res, err := core.MergeCompleted(context.WithoutCancel(ctx), c.prog, c.pol, c.opts, completed)
	if err != nil {
		return nil, fmt.Errorf("dist: merge: %w", err)
	}
	res.Stats.StatesExplored = explored
	res.Stats.SpillDegraded = append(res.Stats.SpillDegraded, spill...)
	if reason != "" {
		rep := &core.Incomplete{
			Reason:         reason,
			Cause:          cause,
			StatesExplored: explored,
			StatesPending:  len(frontier),
			Frontier:       frontier,
			SpillDegraded:  res.Stats.SpillDegraded,
			Metrics:        c.met.Snapshot(),
		}
		res.Incomplete = rep
		return res, &core.IncompleteError{Report: rep}
	}
	return res, nil
}
