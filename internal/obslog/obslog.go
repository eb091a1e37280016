// Package obslog is the structured event journal of the reproduction: a
// run-scoped NDJSON log of typed lifecycle events (shard leases and
// expiries, worker registrations and losses, chaos injections, spill and
// checkpoint incidents) built on log/slog's JSONHandler. Where
// internal/telemetry answers "how much/how fast", obslog answers "what
// happened, to which shard, on which worker, when" — and because every
// process in a distributed run stamps its events with the shared run ID,
// a source name, and a per-journal sequence number, journals from N
// processes merge into one deterministic timeline (Merge).
//
// The journal is nil-safe like the metric types: every method on a nil
// *Journal is a no-op, and Emit's Fields payload travels by value so a
// disabled call allocates nothing on the hot path.
package obslog

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"time"
)

// Type names one journal event. The dotted vocabulary groups events by
// subsystem: run.* (coordinator run lifecycle), shard.* (the lease state
// machine), worker.* (fleet membership), chaos.* (injected faults), and
// the engine incident events (spill.*, checkpoint.*, engine.*).
type Type string

const (
	// Run lifecycle (coordinator).
	RunStarted     Type = "run.started"     // job resolved, run ID minted
	RunPartitioned Type = "run.partitioned" // frontier split into shards
	RunFinished    Type = "run.finished"    // every shard accounted for
	RunDegraded    Type = "run.degraded"    // degradation latched (reason in Fields.Reason)

	// Shard lease state machine (coordinator; shard.started/completed
	// also emitted worker-side with the same span ID).
	ShardLeased       Type = "shard.leased"
	ShardStarted      Type = "shard.started" // worker began enumerating
	ShardCompleted    Type = "shard.completed"
	ShardDuplicate    Type = "shard.duplicate_rejected"
	ShardLeaseExpired Type = "shard.lease_expired"
	ShardRequeued     Type = "shard.requeued"
	ShardIncomplete   Type = "shard.incomplete" // worker-reported budget/panic stop

	// Fleet membership (coordinator detects; chaos harness respawns).
	WorkerRegistered      Type = "worker.registered"
	WorkerHeartbeatMissed Type = "worker.heartbeat_missed"
	WorkerLost            Type = "worker.lost"
	WorkerRespawned       Type = "worker.respawned"

	// Chaos injections (the harness journals its own faults, so a chaos
	// run's journal explains its own anomalies).
	ChaosKill      Type = "chaos.kill"
	ChaosPause     Type = "chaos.pause"
	ChaosPartition Type = "chaos.partition"

	// Engine incidents (core).
	SpillDegraded     Type = "spill.degraded"
	CheckpointWritten Type = "checkpoint.written"
	CheckpointFailed  Type = "checkpoint.failed"
	EngineIncomplete  Type = "engine.incomplete"
)

// Fields is the optional structured payload of an event. It travels by
// value — no variadic boxing — so an emit against a nil journal costs
// a nil check and nothing else. Zero-valued fields are omitted from the
// JSON line.
type Fields struct {
	// Worker names the worker the event concerns (not necessarily the
	// emitting process: the coordinator journals lease grants with the
	// grantee's name).
	Worker string
	// Span is the shard-attempt span ID minted by the coordinator at
	// lease time and echoed through completion, correlating coordinator
	// and worker events (and trace lanes) for one attempt.
	Span string
	// Attempt is the shard's 1-based lease attempt count.
	Attempt int
	// Count is a generic cardinality (shards partitioned, behaviors
	// found, fingerprints shipped — the event type disambiguates).
	Count int
	// States is a states-explored total.
	States int
	// Ms is a duration in milliseconds (shard latency, pause length).
	Ms int64
	// Reason classifies degradations and incompletes.
	Reason string
	// Detail carries free-form context (a path, a leg name).
	Detail string
	// Err is the error text of a failure event.
	Err string
}

// Journal is a run-scoped NDJSON event log. Every line carries the
// event type (msg), the wall-clock time, the run ID, the emitting
// source, and a monotonic per-journal sequence number; Merge sorts on
// (time, src, seq) so concatenating journals from any number of
// processes yields one stable timeline.
//
// All methods are nil-safe, and a Journal is safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	h    slog.Handler
	sink *lineSink
	now  func() time.Time
	run  string
	src  string
	seq  uint64
}

// Options configures a Journal beyond the New defaults.
type Options struct {
	// Out receives NDJSON lines as they are emitted (nil = ring only).
	Out io.Writer
	// Run is the initial run ID (the coordinator overrides a worker's
	// via SetRun once registration reports the authoritative one).
	Run string
	// Source names the emitting process ("mmcoord", "w1", ...).
	Source string
	// Now is the injectable clock for deterministic tests (default
	// time.Now).
	Now func() time.Time
}

// New builds a journal writing NDJSON to w, stamped with run and source.
func New(w io.Writer, run, source string) *Journal {
	return NewWithOptions(Options{Out: w, Run: run, Source: source})
}

// NewWithOptions builds a journal with explicit options. WriteTail
// serves the most recent 1024 lines.
func NewWithOptions(o Options) *Journal {
	if o.Now == nil {
		o.Now = time.Now
	}
	sink := &lineSink{out: o.Out, ring: make([][]byte, 1024)}
	h := slog.NewJSONHandler(sink, &slog.HandlerOptions{
		// Events have no severity dimension — the type is the message —
		// so the level attr is noise and is dropped from every line.
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.LevelKey {
				return slog.Attr{}
			}
			return a
		},
	})
	return &Journal{h: h, sink: sink, now: o.Now, run: o.Run, src: o.Source}
}

// SetRun replaces the run ID stamped on subsequent events — workers call
// this when registration hands them the coordinator's authoritative ID.
// Nil-safe.
func (j *Journal) SetRun(run string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.run = run
	j.mu.Unlock()
}

// Run returns the current run ID. Nil-safe (returns "").
func (j *Journal) Run() string {
	if j == nil {
		return ""
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.run
}

// Emit journals one event with no shard association. Nil-safe.
func (j *Journal) Emit(ev Type, f Fields) { j.emit(ev, -1, f) }

// EmitShard journals one event about shard (shard IDs start at 0, so
// the association is explicit rather than a zero-value sentinel).
// Nil-safe.
func (j *Journal) EmitShard(ev Type, shard int, f Fields) { j.emit(ev, shard, f) }

func (j *Journal) emit(ev Type, shard int, f Fields) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	r := slog.NewRecord(j.now(), slog.LevelInfo, string(ev), 0)
	r.AddAttrs(
		slog.String("run", j.run),
		slog.String("src", j.src),
		slog.Uint64("seq", j.seq),
	)
	if shard >= 0 {
		r.AddAttrs(slog.Int("shard", shard))
	}
	if f.Worker != "" {
		r.AddAttrs(slog.String("worker", f.Worker))
	}
	if f.Span != "" {
		r.AddAttrs(slog.String("span", f.Span))
	}
	if f.Attempt != 0 {
		r.AddAttrs(slog.Int("attempt", f.Attempt))
	}
	if f.Count != 0 {
		r.AddAttrs(slog.Int("count", f.Count))
	}
	if f.States != 0 {
		r.AddAttrs(slog.Int("states", f.States))
	}
	if f.Ms != 0 {
		r.AddAttrs(slog.Int64("ms", f.Ms))
	}
	if f.Reason != "" {
		r.AddAttrs(slog.String("reason", f.Reason))
	}
	if f.Detail != "" {
		r.AddAttrs(slog.String("detail", f.Detail))
	}
	if f.Err != "" {
		r.AddAttrs(slog.String("err", f.Err))
	}
	j.h.Handle(context.Background(), r) //nolint:errcheck // sink errors are best-effort
}

// Seq returns the number of events emitted so far. Nil-safe.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// WriteTail writes up to n of the most recent journal lines (all of the
// retained tail when n <= 0) to w, oldest first — the /journal endpoint.
// Nil-safe.
func (j *Journal) WriteTail(w io.Writer, n int) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	lines := j.sink.tail(n)
	j.mu.Unlock()
	for _, line := range lines {
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// lineSink stores each NDJSON line in a bounded ring and forwards it to
// the output writer. slog's JSONHandler delivers exactly one line per
// Write call; the Journal's mutex serializes callers, so the sink needs
// no lock of its own.
type lineSink struct {
	out  io.Writer
	ring [][]byte
	next int
	n    int
}

func (s *lineSink) Write(p []byte) (int, error) {
	line := append([]byte(nil), p...)
	s.ring[s.next] = line
	s.next = (s.next + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
	if s.out != nil {
		return s.out.Write(p)
	}
	return len(p), nil
}

// tail returns the most recent min(n, retained) lines, oldest first.
func (s *lineSink) tail(n int) [][]byte {
	if n <= 0 || n > s.n {
		n = s.n
	}
	out := make([][]byte, 0, n)
	start := s.next - n
	if start < 0 {
		start += len(s.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, s.ring[(start+i)%len(s.ring)])
	}
	return out
}
