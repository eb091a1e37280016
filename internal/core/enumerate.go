package core

import (
	"context"
	"errors"
	"time"

	"storeatomicity/internal/obslog"
	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
	"storeatomicity/internal/telemetry"
)

// Options tunes enumeration. Every run uses all of the engine's layers
// (symmetry reduction only with dedup on and no CandidateHook);
// EnumerateReference runs none of them.
type Options struct {
	// Speculative enables address-aliasing speculation (Section 5.2):
	// the alias-check ≺ edges of the non-speculative model are dropped,
	// loads may resolve before potentially-aliasing addresses are
	// known, and behaviors whose late-discovered aliases contradict an
	// early resolution are rolled back (discarded).
	Speculative bool
	// MaxNodes bounds graph growth; programs with unbounded loops
	// exceed it and enumeration stops with ReasonMaxNodes (the paper
	// notes its procedure "is not a normalizing strategy"). Default 192.
	MaxNodes int
	// MaxBehaviors bounds total states explored; hitting it stops the
	// run with ReasonMaxBehaviors and the behaviors found so far.
	// Default 1 << 20.
	MaxBehaviors int
	// DisableDedup turns off the Load–Store-graph duplicate discard of
	// Section 4.1 — the ablation for DESIGN.md (duplicate-work blowup).
	// It also disables prefix pruning and symmetry reduction, which are
	// refinements of the same seen-set.
	DisableDedup bool
	// DedupMemBudget caps the resident bytes of the engine's seen-set —
	// the one structure that grows with the number of distinct states
	// rather than with the program. 0 (the default) keeps the classic
	// unbounded in-memory maps. A positive budget switches the seen-set
	// to a tiered store: a hot in-memory tier, with overflow spilled to
	// sorted fingerprint runs in temp files. Each run keeps a sparse
	// index and a Bloom filter in memory, so a lookup reads a run only
	// when its filter says the run may hold the key (see dedupspill.go).
	// The budget covers the hot tier and the filters: the filters take
	// at most half of it, and only once the store has spilled. The
	// behavior set is bit-identical to an unbounded run at any worker
	// count; only where fingerprints live changes. Above width 1 each of
	// the seen-set's shards gets an even share. Ignored for the
	// string-keyed test baseline.
	DedupMemBudget int64
	// FrontierResidentBytes caps the bytes of fully materialized states
	// parked on the engine's work queues. Beyond the budget, the oldest
	// queued states are demoted to delta-compressed replay paths (the
	// checkpoint pathBlock codec) and their graphs and arenas recycled
	// immediately; a demoted state is re-materialized by deterministic
	// path replay when popped or stolen. Resident memory becomes
	// O(window) instead of O(frontier) and the behavior set is
	// bit-identical at any worker count — demotion/revival preserves the
	// exact exploration order. 0 (the default) never demotes. A negative
	// value picks an automatic budget of about 1024 resident states at
	// the MaxNodes ceiling. The budget is split evenly across the
	// workers. Together with DedupMemBudget it bounds the two structures
	// that grow with the search rather than with the program.
	FrontierResidentBytes int64
	// CandidateHook, when non-nil, observes every Load Resolution
	// point: the resolving load's label and address, and the labels of
	// its candidate stores. The discipline package uses it to check
	// the paper's well-synchronization criterion ("exactly one
	// eligible store"). With EnumerateParallel it must be safe for
	// concurrent use. A hook turns symmetry reduction off: a canonical
	// orbit representative would report a relabelled twin's labels.
	CandidateHook func(loadLabel string, addr program.Addr, candidates []string)
	// Checkpoint, when non-nil with a Path and a positive Every,
	// serializes the work frontier to disk periodically so a killed
	// long run can restart where it left off (see Resume). Timed writes
	// are best-effort: failures go to Checkpoint.OnError and never
	// abort the enumeration.
	Checkpoint *CheckpointConfig
	// Metrics, when non-nil, receives live engine counters: states
	// explored, forks, pool hits/misses, dedup hits, rollbacks,
	// steals, frontier depth, candidates(L) set sizes, per-phase
	// timings, and checkpoint latency. Nil (the default) costs a
	// predictable nil-check branch per event — the disabled hot path
	// allocates nothing and reads no clock.
	Metrics *telemetry.EnumMetrics
	// Tracer, when non-nil, records span-style phase timings (graph
	// generation + dataflow per behavior, Load Resolution forking,
	// checkpoint writes) for Chrome trace_event export.
	Tracer *telemetry.Tracer
	// Journal, when non-nil, receives structured incident events:
	// budget/panic stops, checkpoint writes and failures, and spill-tier
	// degradations. Incidents are rare by construction, so the journal
	// never appears on the per-state hot path.
	Journal *obslog.Journal
	// SeedSeen pre-loads the dedup seen-set with fingerprints of states
	// another engine already fully explored (the distributed fingerprint
	// exchange). Purely a pruning hint: a seeded subtree's behaviors are
	// merged from whoever exported it, so skipping it here cannot lose
	// results. Ignored by the string-keyed test baseline.
	SeedSeen []uint64
	// ExportSeen asks the engine to export its seen-set fingerprints,
	// in ascending order, into Result.SeenExport after a clean run.
	// Distributed workers ship these to the coordinator so later shards
	// skip already-explored subtrees.
	ExportSeen bool

	// dedupString keys the seen and final sets by the full string
	// signature instead of the 64-bit fingerprint, at any width. It is the
	// property-test baseline for the hashed dedup path and is
	// intentionally unexported: the fingerprint is the production key.
	dedupString bool
	// The reference switches each turn one engine layer back into the
	// original procedure (closureFull and candidatesScan, no prefix
	// pruning, deep-copy fork-then-resolve, no symmetry reduction).
	// EnumerateReference sets all four; tests set them one at a time.
	disableIncrementalClosure bool
	disablePrefixPrune        bool
	disableCOW                bool
	disableSymmetry           bool
}

// symmetryOn reports whether a run reduces by symmetry — not without
// dedup (the reduction refines the seen-set), under a CandidateHook, in
// the reference engine, or without fork-time keys: only childKey
// computes canonical keys, and the post-quiescence check that replaces
// it keys states plainly (shardedSet.stateKey). The engine and
// checkpoints share it.
func (o Options) symmetryOn() bool {
	return !o.DisableDedup && o.CandidateHook == nil && !o.disableSymmetry && !o.disablePrefixPrune
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 192
	}
	if o.MaxBehaviors == 0 {
		o.MaxBehaviors = 1 << 20
	}
	if o.Checkpoint != nil && (o.Checkpoint.Path == "" || o.Checkpoint.Every <= 0) {
		o.Checkpoint = nil
	}
	return o
}

// Stats counts enumeration work. One engine fills every field at every
// width; a width-1 run has Steals == 0 and, like its exploration order,
// counters that repeat exactly from run to run.
type Stats struct {
	// StatesExplored counts behaviors removed from the work set. A
	// budgeted run stops after exactly MaxBehaviors states.
	StatesExplored int
	// Forks counts child states materialized and queued. A (load,
	// candidate) resolution that is pruned, rolls back, or completes a
	// final behavior in place never forks — those land in
	// PrefixPruned/SymmetryPruned, TrialRollbacks, or ChildrenElided
	// instead. EnumerateReference forks every attempted resolution
	// first.
	Forks int
	// ChildrenElided counts candidate children evaluated in place on the
	// parent (trial-apply) and never queued: doomed resolutions,
	// already-recorded leaf behaviors, and newly recorded leaf behaviors
	// that skipped the queue round trip.
	ChildrenElided int
	// TrialRollbacks counts trial applications undone in place because
	// the resolution or its closure failed — the forks-plus-rollbacks
	// the trial engine priced without cloning.
	TrialRollbacks int
	// FrontierDemoted counts queued states demoted to compressed replay
	// paths under Options.FrontierResidentBytes; FrontierResidentPeak is
	// the high-water mark of resident frontier bytes (exact at width 1,
	// the sum of per-worker peaks above).
	FrontierDemoted      int
	FrontierResidentPeak int64
	// DuplicatesDiscarded counts behaviors dropped by the
	// post-quiescence Load–Store-graph dedup check. Only the reference
	// engine runs that check — the engine proper keys every child at
	// fork time (PrefixPruned, SymmetryPruned) — so it is 0 outside
	// EnumerateReference.
	DuplicatesDiscarded int
	// PrefixPruned counts forks dropped at fork time because an
	// equivalent partially resolved state was already queued or
	// explored (prefix-state dedup).
	PrefixPruned int
	// SymmetryPruned counts forks dropped at fork time because a
	// symmetric image of the state (under a program automorphism) was
	// already queued or explored.
	SymmetryPruned int
	// Rollbacks counts behaviors discarded as inconsistent — nonzero
	// only under speculation.
	Rollbacks int
	// Steals counts work items taken from another worker's deque —
	// always zero at Workers == 1.
	Steals int
	// PoolHits counts forks served from a recycled state; PoolMisses
	// counts forks that allocated fresh. Hits/(Hits+Misses) is the
	// pool's effectiveness on this run.
	PoolHits   int
	PoolMisses int
	// PoolDropped counts retired states the pool refused because their
	// slab arena outgrew what the current program justifies pinning
	// (statePool.limitBytes).
	PoolDropped int
	// CowRowsShared/CowRowsCopied count closure rows adopted by reference
	// at fork time vs rows copied on first write. Their ratio is the COW
	// win; EnumerateReference forks deep copies and reports both as zero.
	CowRowsShared int64
	CowRowsCopied int64
	// Workers records the engine width that produced this result.
	Workers int
	// SpillDegraded lists why the RAM-bounded dedup spill store (if
	// enabled) fell back to one-sided operation — flush, compact, or
	// read failures. Empty on a healthy run. The run stays sound either
	// way; this surfaces that it may have re-explored duplicates or
	// exceeded its dedup memory budget.
	SpillDegraded []string
}

// Result is the set of distinct final executions of a program under a
// model, plus work statistics. Executions come in one canonical order
// (by fingerprint, then SourceKey) whatever the width or discovery order.
// A gracefully stopped run (cancellation, deadline, budget, worker panic)
// sets Incomplete and still carries every execution found before the
// stop.
type Result struct {
	Model      string
	Executions []*Execution
	Stats      Stats
	// Incomplete is nil for an exhaustive enumeration; otherwise it
	// reports why the run stopped early and the replayable frontier.
	Incomplete *Incomplete
	// SeenExport holds the dedup fingerprints, ascending, exported after
	// a clean run when Options.ExportSeen is set (the distributed
	// fingerprint exchange); nil otherwise.
	SeenExport []uint64
}

// OutcomeSet returns the distinct load-value outcome keys, deduplicated
// (several executions — different source assignments — may produce equal
// values).
func (r *Result) OutcomeSet() map[string]bool {
	out := map[string]bool{}
	for _, e := range r.Executions {
		out[e.Key()] = true
	}
	return out
}

// HasOutcome reports whether some execution matches every (load label →
// value) constraint in want.
func (r *Result) HasOutcome(want map[string]program.Value) bool {
	return r.FindOutcome(want) != nil
}

// FindOutcome returns an execution matching every (load label → value)
// constraint in want, or nil.
func (r *Result) FindOutcome(want map[string]program.Value) *Execution {
	for _, e := range r.Executions {
		vals := e.LoadValues()
		ok := true
		for l, v := range want {
			if vals[l] != v {
				ok = false
				break
			}
		}
		if ok {
			return e
		}
	}
	return nil
}

// resumeSeed carries replayed checkpoint state into an engine: behaviors
// to finish (work), completed behaviors to re-record (finals), and the
// carried-forward exploration counter.
type resumeSeed struct {
	work     []*state
	finals   []*state
	explored int
}

// Enumerate computes every behavior of p under the reordering policy pol
// with Store Atomicity, per the procedure of Section 4.1: repeat graph
// generation and dataflow execution to fixpoint, then fork one behavior
// per (eligible load, candidate store) choice, deduplicating by Load–Store
// graph; completed behaviors are collected. It is the engine at width 1
// (see EnumerateParallel): one worker on the calling goroutine, with a
// deterministic exploration order.
//
// Cancellation and deadlines on ctx stop the run cleanly; like every
// other stopping condition (MaxBehaviors, MaxNodes, a panic inside the
// engine or a hook) they return the behaviors found so far with
// Result.Incomplete set and an *IncompleteError.
func Enumerate(ctx context.Context, p *program.Program, pol order.Policy, opts Options) (*Result, error) {
	return enumerateParallelFrom(ctx, p, pol, opts, 1, nil)
}

// EnumerateReference runs Section 4.1's procedure as first written, at
// width 1: the whole-graph closure fixpoint, a per-store candidates(L)
// scan, children deep-copied before they resolve, and dedup only after
// quiescence. It returns Enumerate's behavior set, more slowly; tests
// and mmfuzz hold the engine to it.
func EnumerateReference(ctx context.Context, p *program.Program, pol order.Policy, opts Options) (*Result, error) {
	opts.disableIncrementalClosure = true
	opts.disablePrefixPrune = true
	opts.disableCOW = true
	opts.disableSymmetry = true
	return enumerateParallelFrom(ctx, p, pol, opts, 1, nil)
}

// Resume continues an enumeration from a checkpoint: completed paths are
// replayed into the final set, frontier paths back onto the work list,
// and the engine, at the given width, picks up where the checkpointed run
// stopped. The final behavior set of
// an interrupted-then-resumed run is identical to an uninterrupted run's.
func Resume(ctx context.Context, p *program.Program, pol order.Policy, opts Options, c *Checkpoint, workers int) (*Result, error) {
	opts = opts.withDefaults()
	if err := c.validate(p, pol, opts); err != nil {
		return nil, err
	}
	seed := &resumeSeed{explored: c.StatesExplored}
	for _, steps := range c.Completed {
		s, err := replayCompleted(p, pol, opts, steps)
		if err != nil {
			return nil, err
		}
		seed.finals = append(seed.finals, s)
	}
	for _, steps := range c.Frontier {
		s, err := replayPath(p, pol, opts, steps)
		if err != nil {
			return nil, err
		}
		seed.work = append(seed.work, s)
	}
	return enumerateParallelFrom(ctx, p, pol, opts, workers, seed)
}

// classifyCtxErr maps a context error to its stop reason.
func classifyCtxErr(err error) IncompleteReason {
	if errors.Is(err, context.DeadlineExceeded) {
		return ReasonDeadline
	}
	return ReasonCanceled
}

// copyPath snapshots a state's resolution path for a report or
// checkpoint (the state's own slice may be recycled by the pool).
func copyPath(path []PathStep) []PathStep {
	return append([]PathStep(nil), path...)
}

// checkpointNow assembles a checkpoint from in-flight engine state,
// embedding the live metrics snapshot (nil when telemetry is off) so a
// checkpoint explains the run it froze, not just its frontier.
func checkpointNow(model string, progHash uint64, opts Options, explored int, completed, frontier [][]PathStep) *Checkpoint {
	return &Checkpoint{
		Model:          model,
		ProgramHash:    progHash,
		Speculative:    opts.Speculative,
		Symmetry:       opts.symmetryOn(),
		StatesExplored: explored,
		Completed:      completed,
		Frontier:       frontier,
		Metrics:        opts.Metrics.Snapshot(),
	}
}

// now is the engine's clock. Every call sits behind a Metrics, Tracer or
// Checkpoint check, so a run with none of them never reads the clock;
// TestNilTelemetryReadsNoClock counts the calls.
var now = time.Now

// saveTimed writes a periodic checkpoint, routing failures to OnError.
// Write latency feeds the checkpoint histogram and a tracer span.
func saveTimed(cfg *CheckpointConfig, c *Checkpoint, opts Options) {
	var t0 time.Time
	if opts.Metrics != nil || opts.Tracer != nil {
		t0 = now()
	}
	err := c.Save(cfg.Path)
	if !t0.IsZero() {
		if opts.Metrics != nil {
			opts.Metrics.CheckpointNs.Observe(now().Sub(t0).Nanoseconds())
		}
		opts.Tracer.Span("checkpoint", "checkpoint", 0, t0)
	}
	if err != nil {
		opts.Journal.Emit(obslog.CheckpointFailed, obslog.Fields{Detail: cfg.Path, Err: err.Error()})
	} else {
		var ms int64
		if !t0.IsZero() {
			ms = now().Sub(t0).Milliseconds()
		}
		opts.Journal.Emit(obslog.CheckpointWritten, obslog.Fields{
			Detail: cfg.Path, States: c.StatesExplored, Count: len(c.Frontier), Ms: ms,
		})
	}
	if err != nil && cfg.OnError != nil {
		cfg.OnError(err)
	}
}

// runToQuiescence alternates generation and execution until neither makes
// progress, then applies the Store Atomicity closure (alias edges inserted
// during execution can require derived edges before any new resolution).
// When the behavior's options carry telemetry the timed variant runs
// instead; the untimed loop below stays free of clock reads so the
// disabled path costs nothing.
func (s *state) runToQuiescence() error {
	if s.opts.Metrics != nil || s.opts.Tracer != nil {
		return s.runToQuiescenceTimed()
	}
	for {
		gen, err := s.generate()
		if err != nil {
			return err
		}
		exe, err := s.execute()
		if err != nil {
			return err
		}
		if !gen && !exe {
			break
		}
	}
	return s.closure()
}

// runToQuiescenceTimed is runToQuiescence with phase accounting: generate
// time feeds the Section 4 step-1 counter, execute + closure time the
// step-2 counter, and the whole fixpoint becomes one "quiesce" span on
// the worker's trace lane. Timings flush even on the error paths so
// rolled-back behaviors still account their work.
func (s *state) runToQuiescenceTimed() (err error) {
	met, tr := s.opts.Metrics, s.opts.Tracer
	start := now()
	var genNs, exeNs int64
	defer func() {
		if met != nil {
			met.GenerateNs.Add(s.shard, genNs)
			met.ExecuteNs.Add(s.shard, exeNs)
			met.StateNs.Observe(now().Sub(start).Nanoseconds())
		}
		tr.Span("quiesce", "phase", s.shard, start)
	}()
	for {
		t0 := now()
		gen, gerr := s.generate()
		genNs += now().Sub(t0).Nanoseconds()
		if gerr != nil {
			return gerr
		}
		t0 = now()
		exe, xerr := s.execute()
		exeNs += now().Sub(t0).Nanoseconds()
		if xerr != nil {
			return xerr
		}
		if !gen && !exe {
			break
		}
	}
	t0 := now()
	err = s.closure()
	exeNs += now().Sub(t0).Nanoseconds()
	return err
}

// hasEligibleLoad reports whether any unresolved load is currently
// eligible for resolution.
func (s *state) hasEligibleLoad() bool {
	for lid := range s.nodes {
		if s.eligible(lid) {
			return true
		}
	}
	return false
}
