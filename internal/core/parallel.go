package core

// The enumeration engine. The behavior set B of Section 4.1 is an
// unordered work pool — behaviors are independent once forked — so one
// work-stealing scheduler serves every width: each worker owns a LIFO
// deque of behaviors (depth-first, which keeps the live frontier small)
// and steals FIFO from a random victim when its own deque drains —
// stealing the oldest entries hands over the largest subtrees. The
// Load–Store-graph dedup set and the final-execution set are sharded by
// fingerprint (one shard at width 1, dedupShards above) so workers rarely
// contend on a lock, and each worker keeps private Stats and a private
// state pool, merged/retired at the end.
//
// Width 1 is the classic sequential search: worker 0 runs on the calling
// goroutine, nothing is ever stolen, and exploration order is
// deterministic — checkpoints, budget stops and Incomplete frontiers
// repeat exactly. Wider runs find the identical behavior set (tests
// enforce it) in a schedule-dependent order; every width returns the
// executions in one canonical order (shardedSet.sorted).
//
// Failure semantics degrade gracefully: context cancellation, deadline
// expiry, the MaxBehaviors/MaxNodes budgets, and worker panics all stop
// the scheduler cleanly (no leaked goroutines), return every execution
// found so far, and report the unexplored frontier as replayable paths
// (Result.Incomplete) so a Resume can finish the run. A panicking worker
// is isolated: the crash becomes a *PanicError carrying the offending
// program and enumeration path, and the peers are cancelled.
//
// Frontier snapshots (stop-time and timed checkpoints) need every live
// behavior to be reachable under a lock: each worker advertises the
// behavior it is processing in w.current (guarded by w.mu), a steal moves
// a behavior between deques with both locks held in index order, and the
// snapshot takes every worker lock in that same order — so no behavior is
// ever in transit outside all locks, and lock ordering is acyclic.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"storeatomicity/internal/obslog"
	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
	"storeatomicity/internal/telemetry"
)

// wsEngine is the shared scheduler core.
type wsEngine struct {
	opts Options
	prog *program.Program
	pol  order.Policy
	ctx  context.Context

	// met/tr/inst mirror Options.Metrics/Tracer for the hot paths (inst
	// short-circuits clock reads when both are nil).
	met  *telemetry.EnumMetrics
	tr   *telemetry.Tracer
	inst bool

	// prefixPrune/sym are the pruning setup: fork-time dedup against the
	// shared seen-set, and the program's automorphism group for canonical
	// keys (nil when off — see Options.symmetryOn — or absent).
	prefixPrune bool
	sym         *symmetry

	workers []*wsWorker

	// pending counts behaviors that are queued or being processed. A
	// parent is decremented only after its children are pushed, so
	// pending reaching zero means the enumeration is complete.
	pending  atomic.Int64
	explored atomic.Int64
	// resident is the engine-wide count of resident frontier bytes, the
	// one count frBudget (Options.FrontierResidentBytes resolved; 0 never
	// demotes) is checked against; peak is its high-water mark.
	resident atomic.Int64
	peak     atomic.Int64
	frBudget int64

	stop atomic.Bool

	// errMu guards the stop classification: reason/cause for graceful
	// stops, firstErr for engine-invariant failures. First writer wins.
	errMu    sync.Mutex
	reason   IncompleteReason
	cause    error
	firstErr error

	// leftover collects behaviors that reached a worker but were not
	// processed because the scheduler was stopping; they rejoin the
	// frontier in the Incomplete report.
	leftMu   sync.Mutex
	leftover []*state

	// Idle workers park on idleCond; idlers mirrors the count so
	// pushers can skip the lock when nobody is parked.
	idleMu   sync.Mutex
	idleCond sync.Cond
	idlers   atomic.Int32

	seen   shardedSet
	finals shardedSet

	// Timed checkpoints: whichever worker finds one due (at the top of its
	// loop) claims it by advancing lastCkpt, nanoseconds since start.
	ckpt     *CheckpointConfig
	progHash uint64
	start    time.Time
	lastCkpt atomic.Int64
}

// wsWorker is one scheduler worker: a lock-guarded deque (LIFO for the
// owner, FIFO for thieves), the behavior currently being processed, a
// private state pool, private stats, and an xorshift RNG for victim
// selection.
type wsWorker struct {
	eng *wsEngine
	idx int

	mu      sync.Mutex
	head    int
	deque   []*state
	current *state
	// Frontier demotion (see frontier.go): charges mirrors deque (the
	// resident charge of each queued state, counted in wsEngine.resident).
	// dem holds the demoted (older) portion of this worker's frontier as
	// compressed replay paths. currentDemoted advertises a demoted path
	// between its removal from a stack and the completion of its replay,
	// preserving the frontier-snapshot invariant that no behavior is in
	// transit outside all locks.
	charges        []int64
	dem            demotedStack
	currentDemoted []PathStep

	// fams collects COW families created on this worker (frontier
	// revivals); merged into the run's collector after the workers join.
	fams cowFams

	pool  statePool
	stats Stats
	rng   uint64
}

// EnumerateParallel is Enumerate distributed over workers goroutines
// (runtime.NumCPU() when workers <= 0). Options.CandidateHook, if set,
// must be safe for concurrent use. Cancellation, deadlines, budgets, and
// worker panics stop the run gracefully — see Enumerate.
func EnumerateParallel(ctx context.Context, p *program.Program, pol order.Policy, opts Options, workers int) (*Result, error) {
	return enumerateParallelFrom(ctx, p, pol, opts, workers, nil)
}

// enumerateParallelFrom runs the engine at the given width, optionally
// seeded from a checkpoint, a shard path, or completed paths to merge.
func enumerateParallelFrom(ctx context.Context, p *program.Program, pol order.Policy, opts Options, workers int, seed *resumeSeed) (*Result, error) {
	opts = opts.withDefaults()
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	e := &wsEngine{opts: opts, prog: p, pol: pol, ctx: ctx}
	e.prefixPrune = !opts.DisableDedup && !opts.disablePrefixPrune
	if opts.symmetryOn() {
		e.sym = detectSymmetry(p)
	}
	e.met, e.tr = opts.Metrics, opts.Tracer
	e.inst = e.met != nil || e.tr != nil
	if e.met != nil {
		e.met.Workers.Set(int64(workers))
	}
	e.idleCond.L = &e.idleMu
	e.seen.init(workers, opts, opts.DedupMemBudget)
	defer e.seen.release()
	// The finals set is never budgeted: the result holds every recorded
	// execution in memory regardless (each an exact copy of a few KB, see
	// state.finish), so spilling their 16-byte fingerprints would save
	// next to nothing and cost a disk probe per final.
	e.finals.init(workers, opts, 0)
	e.workers = make([]*wsWorker, workers)
	limit := stateLimitFor(opts.MaxNodes)
	e.frBudget = opts.FrontierResidentBytes
	if e.frBudget < 0 {
		e.frBudget = autoFrontierBudget(opts.MaxNodes)
	}
	for i := range e.workers {
		e.workers[i] = &wsWorker{eng: e, idx: i, rng: uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
		e.workers[i].pool.limitBytes = limit
	}

	e.seen.seed(opts.SeedSeen)

	// Forks join their root's COW family, so collecting families at the
	// single-threaded moments (seeding here, orbit expansion below) covers
	// every graph the run touches.
	var fams cowFams
	if seed != nil {
		e.explored.Store(int64(seed.explored))
		for _, s := range seed.finals {
			fams.add(s.g)
			// Duplicate recorded behaviors in the checkpoint are
			// dropped by the fingerprint dedup.
			e.finals.record(s)
		}
		e.pending.Store(int64(len(seed.work)))
		for i, s := range seed.work {
			fams.add(s.g)
			e.workers[i%workers].push(s)
		}
	} else {
		root := newState(p, pol, opts)
		fams.add(root.g)
		e.pending.Store(1)
		e.workers[0].push(root)
	}

	if ckpt := opts.Checkpoint; ckpt != nil {
		e.ckpt, e.progHash, e.start = ckpt, ProgramHash(p), now()
	}

	// Cancellation halts the scheduler from the context's own callback
	// (so parked peers wake), never from a watcher goroutine; a lone
	// worker never parks and polls ctx on every state, so it needs no
	// callback. Worker 0 runs on the calling goroutine, and the peers are
	// joined before returning.
	if workers > 1 && ctx.Done() != nil {
		defer context.AfterFunc(ctx, func() { e.halt(classifyCtxErr(ctx.Err()), ctx.Err()) })()
	}
	var wg sync.WaitGroup
	for _, w := range e.workers[1:] {
		wg.Add(1)
		go func(w *wsWorker) {
			defer wg.Done()
			w.run()
		}(w)
	}
	e.workers[0].run()
	wg.Wait()

	res := &Result{Model: pol.Name()}
	res.Stats.StatesExplored = int(e.explored.Load())
	res.Stats.Workers = workers
	res.Stats.FrontierResidentPeak = e.peak.Load()
	for _, w := range e.workers {
		res.Stats.Forks += w.stats.Forks
		res.Stats.ChildrenElided += w.stats.ChildrenElided
		res.Stats.TrialRollbacks += w.stats.TrialRollbacks
		res.Stats.FrontierDemoted += w.stats.FrontierDemoted
		res.Stats.Rollbacks += w.stats.Rollbacks
		res.Stats.DuplicatesDiscarded += w.stats.DuplicatesDiscarded
		res.Stats.PrefixPruned += w.stats.PrefixPruned
		res.Stats.SymmetryPruned += w.stats.SymmetryPruned
		res.Stats.Steals += w.stats.Steals
		res.Stats.PoolHits += w.pool.hits
		res.Stats.PoolMisses += w.pool.misses
		res.Stats.PoolDropped += w.pool.dropped
		// Frontier revivals created COW families on worker goroutines;
		// fold each worker's private collector in now that they joined.
		fams.merge(&w.fams)
	}
	if e.met != nil && res.Stats.FrontierResidentPeak > 0 {
		e.met.FrontierResidentPeak.Set(res.Stats.FrontierResidentPeak)
	}
	if e.met != nil {
		e.met.PoolHits.Add(0, int64(res.Stats.PoolHits))
		e.met.PoolMisses.Add(0, int64(res.Stats.PoolMisses))
		e.met.PoolDrops.Add(0, int64(res.Stats.PoolDropped))
		e.met.Rollbacks.Add(0, int64(res.Stats.Rollbacks))
		e.met.Frontier.Set(e.pending.Load())
	}

	e.errMu.Lock()
	reason, cause, ferr := e.reason, e.cause, e.firstErr
	e.errMu.Unlock()
	res.Stats.SpillDegraded = e.seen.degradations()

	// Orbit expansion: symmetry pruning explored one representative per
	// state orbit, so the final set now holds at least one member of every
	// behavior orbit. Applying every automorphism to every recorded
	// behavior (group closure makes one pass sufficient) and replaying the
	// permuted paths reconstructs the rest; the plain fingerprint dedup in
	// finals drops the already-present members. Only a complete run
	// expands — an interrupted run's frontier is resumable and expansion
	// would record behaviors the checkpoint cannot account for.
	if reason == "" && ferr == nil && e.sym != nil {
		if xerr := expandSymmetry(p, pol, opts, e.sym, e.finals.executions(), func(ns *state) {
			fams.add(ns.g)
			if e.finals.record(ns) && e.met != nil {
				e.met.Behaviors.Inc(0)
			}
		}); xerr != nil {
			ferr = xerr
		}
	}
	// COW totals fold last: orbit expansion above may have added families.
	{
		shared, copied, slab := fams.totals()
		res.Stats.CowRowsShared, res.Stats.CowRowsCopied = shared, copied
		if e.met != nil {
			e.met.CowRowsShared.Add(0, shared)
			e.met.CowRowsCopied.Add(0, copied)
			e.met.SlabBytes.Add(0, slab)
		}
	}

	// Partial results are first-class: executions are collected on
	// every path, including stops and errors.
	res.Executions = e.finals.sorted()

	if reason != "" {
		rep := &Incomplete{
			Reason:         reason,
			Cause:          cause,
			StatesExplored: res.Stats.StatesExplored,
			Frontier:       e.frontierPaths(),
		}
		rep.StatesPending = len(rep.Frontier)
		rep.SpillDegraded = res.Stats.SpillDegraded
		rep.Metrics = e.met.Snapshot()
		res.Incomplete = rep
		opts.Journal.Emit(obslog.EngineIncomplete, obslog.Fields{
			Reason: string(reason), States: rep.StatesExplored, Count: rep.StatesPending,
		})
		return res, &IncompleteError{Report: rep}
	}
	if ferr != nil {
		return res, ferr
	}
	if opts.ExportSeen {
		res.SeenExport = e.seen.export()
	}
	return res, nil
}

// residentDelta applies a change in some worker's resident frontier
// bytes to the engine-wide count, its high-water mark and the live
// frontier_resident_bytes gauge.
func (e *wsEngine) residentDelta(d int64) {
	n := e.resident.Add(d)
	for p := e.peak.Load(); n > p && !e.peak.CompareAndSwap(p, n); p = e.peak.Load() {
	}
	if e.met != nil {
		e.met.FrontierResident.Set(n)
	}
}

// push appends a behavior to the worker's own deque, demotes past the
// frontier budget, and wakes a parked worker if any. The caller must have
// accounted for the behavior in e.pending before pushing.
func (w *wsWorker) push(s *state) {
	e := w.eng
	c := s.residentBytes()
	w.mu.Lock()
	w.deque = append(w.deque, s)
	w.charges = append(w.charges, c)
	e.residentDelta(c)
	// While the engine-wide count is over budget, demote this deque's
	// oldest resident entries; its newest stays resident (the owner pops
	// it right back in the common depth-first pattern).
	for e.frBudget > 0 && e.resident.Load() > e.frBudget && len(w.deque)-w.head > 1 {
		w.demoteOldestLocked()
	}
	w.mu.Unlock()
	e.wake()
}

// demoteOldestLocked compresses the oldest resident behavior onto the
// demoted stack and recycles its buffers. Caller holds w.mu (and is the
// owner — the pool is owner-private).
func (w *wsWorker) demoteOldestLocked() {
	s := w.takeOldestLocked()
	w.dem.push(copyPath(s.path))
	w.pool.put(s)
	w.stats.FrontierDemoted++
	if w.eng.met != nil {
		w.eng.met.FrontierDemoted.Inc(w.idx)
	}
}

// pop takes the newest queued behavior (LIFO) and advertises it under the
// same lock acquisition: a resident state lands in w.current, a demoted
// path in w.currentDemoted (the caller replays it outside the lock via
// revive). Returns (nil, nil) when the worker's frontier is empty.
func (w *wsWorker) pop() (*state, []PathStep) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.head < len(w.deque) {
		n := len(w.deque) - 1
		s := w.deque[n]
		w.deque[n] = nil
		w.deque = w.deque[:n]
		w.eng.residentDelta(-w.charges[n])
		w.charges = w.charges[:n]
		w.resetIfEmptyLocked()
		w.current = s
		return s, nil
	}
	if path, ok := w.dem.popNewest(); ok {
		w.currentDemoted = path
		return nil, path
	}
	return nil, nil
}

// takeOldestLocked removes the oldest resident behavior (FIFO), or nil.
// Caller holds w.mu.
func (w *wsWorker) takeOldestLocked() *state {
	if w.head >= len(w.deque) {
		return nil
	}
	s := w.deque[w.head]
	w.deque[w.head] = nil
	w.eng.residentDelta(-w.charges[w.head])
	w.head++
	w.resetIfEmptyLocked()
	return s
}

// resetIfEmptyLocked rewinds a drained deque so the head index does not
// pin consumed backing array slots.
func (w *wsWorker) resetIfEmptyLocked() {
	if w.head == len(w.deque) {
		w.head = 0
		w.deque = w.deque[:0]
		w.charges = w.charges[:0]
	}
}

// revive replays a demoted path into a live state on the worker's own
// goroutine (outside every deque lock — replay is the expensive half of
// demotion) and advertises the result as w.current. On replay failure the
// engine stops with the error and the behavior's pending slot is
// released; revive then returns nil.
func (w *wsWorker) revive(path []PathStep) *state {
	e := w.eng
	ns, err := replayPath(e.prog, e.pol, e.opts, path)
	if err != nil {
		e.setErr(fmt.Errorf("core: frontier revival failed: %w", err))
		w.mu.Lock()
		w.currentDemoted = nil
		w.mu.Unlock()
		e.pending.Add(-1)
		return nil
	}
	w.fams.add(ns.g)
	w.mu.Lock()
	w.current = ns
	w.currentDemoted = nil
	w.mu.Unlock()
	return ns
}

// clearCurrent retires the advertised in-flight behavior.
func (w *wsWorker) clearCurrent() {
	w.mu.Lock()
	w.current = nil
	w.mu.Unlock()
}

// nextRand is a xorshift64 step for victim selection.
func (w *wsWorker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// steal scans victims starting at a random offset. The victim's deque
// slot and the thief's current (or currentDemoted) pointer are updated
// under both locks (taken in worker-index order), so a frontier snapshot
// can never observe the stolen behavior in neither place. The victim's
// demoted entries are stolen before its resident ones — they are the
// oldest, hence the largest subtrees; the thief replays the path outside
// the locks. A lone worker has no victims.
func (e *wsEngine) steal(w *wsWorker) (*state, []PathStep) {
	n := len(e.workers)
	if n == 1 {
		return nil, nil
	}
	off := int(w.nextRand() % uint64(n))
	for i := 0; i < n; i++ {
		v := e.workers[(off+i)%n]
		if v == w {
			continue
		}
		lo, hi := w, v
		if v.idx < w.idx {
			lo, hi = v, w
		}
		lo.mu.Lock()
		hi.mu.Lock()
		var s *state
		path, ok := v.dem.takeOldest()
		if ok {
			w.currentDemoted = path
		} else {
			s = v.takeOldestLocked()
			if s != nil {
				w.current = s
			}
		}
		hi.mu.Unlock()
		lo.mu.Unlock()
		if s != nil || ok {
			w.stats.Steals++
			if e.met != nil {
				e.met.Steals.Inc(w.idx)
			}
			return s, path
		}
	}
	return nil, nil
}

// wake signals one parked worker, if any. The fast path is a single
// atomic load.
func (e *wsEngine) wake() {
	if e.idlers.Load() == 0 {
		return
	}
	e.idleMu.Lock()
	e.idleCond.Signal()
	e.idleMu.Unlock()
}

// wakeAll unparks every worker — used at termination and on error so no
// goroutine is left waiting (the error path must broadcast, not signal:
// every parked worker has to observe stop/pending and exit).
func (e *wsEngine) wakeAll() {
	e.idleMu.Lock()
	e.idleCond.Broadcast()
	e.idleMu.Unlock()
}

// halt records a graceful stop (first classification wins), stops the
// scheduler, and wakes every parked worker.
func (e *wsEngine) halt(reason IncompleteReason, cause error) {
	e.errMu.Lock()
	if e.reason == "" && e.firstErr == nil {
		e.reason, e.cause = reason, cause
	}
	e.errMu.Unlock()
	e.stop.Store(true)
	e.wakeAll()
}

// setErr records the first engine-invariant error, stops the scheduler,
// and wakes every parked worker.
func (e *wsEngine) setErr(err error) {
	e.errMu.Lock()
	if e.reason == "" && e.firstErr == nil {
		e.firstErr = err
	}
	e.errMu.Unlock()
	e.stop.Store(true)
	e.wakeAll()
}

// addLeftover returns an unprocessed behavior to the frontier during a
// stop.
func (e *wsEngine) addLeftover(s *state) {
	e.leftMu.Lock()
	e.leftover = append(e.leftover, s)
	e.leftMu.Unlock()
}

// frontierPaths snapshots the replayable path of every live behavior:
// all deques and in-flight behaviors (all worker locks held, in index
// order, so nothing is in transit), plus the leftovers parked by a stop.
// Each worker's entries come oldest first — at width 1 exactly the
// logical stack order. A behavior that completes while the snapshot runs
// may appear in both the frontier and the completed set; replaying it is
// idempotent (the final-set fingerprint dedup discards the duplicate), so
// double capture is safe where a missed behavior would not be.
func (e *wsEngine) frontierPaths() [][]PathStep {
	var paths [][]PathStep
	for _, w := range e.workers {
		w.mu.Lock()
	}
	for _, w := range e.workers {
		paths = w.dem.appendPaths(paths)
		for i := w.head; i < len(w.deque); i++ {
			paths = append(paths, copyPath(w.deque[i].path))
		}
		if w.current != nil {
			paths = append(paths, copyPath(w.current.path))
		}
		if w.currentDemoted != nil {
			paths = append(paths, copyPath(w.currentDemoted))
		}
	}
	for i := len(e.workers) - 1; i >= 0; i-- {
		e.workers[i].mu.Unlock()
	}
	e.leftMu.Lock()
	for _, s := range e.leftover {
		paths = append(paths, copyPath(s.path))
	}
	e.leftMu.Unlock()
	return paths
}

// maybeCheckpoint writes a timed checkpoint if one is due and this worker
// wins the claim. The frontier is snapshotted before the completed set:
// a behavior completing between the two scans then shows up in both
// (harmless) rather than in neither (unsound).
func (e *wsEngine) maybeCheckpoint() {
	last := e.lastCkpt.Load()
	elapsed := int64(now().Sub(e.start))
	if elapsed-last < int64(e.ckpt.Every) || !e.lastCkpt.CompareAndSwap(last, elapsed) {
		return
	}
	frontier := e.frontierPaths()
	var completed [][]PathStep
	for _, x := range e.finals.executions() {
		completed = append(completed, x.Path)
	}
	saveTimed(e.ckpt, checkpointNow(e.pol.Name(), e.progHash, e.opts, int(e.explored.Load()), completed, frontier), e.opts)
}

// hasQueuedWork reports whether any deque holds work, resident or
// demoted.
func (e *wsEngine) hasQueuedWork() bool {
	for _, v := range e.workers {
		v.mu.Lock()
		n := len(v.deque) - v.head + v.dem.count()
		v.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// park blocks the worker until new work may exist. It rechecks the
// deques under idleMu so a push that raced with the failed pop/steal
// cannot be missed: wake() takes idleMu before signalling, and Wait
// releases idleMu atomically.
func (e *wsEngine) park() {
	e.idleMu.Lock()
	if e.stop.Load() || e.pending.Load() == 0 || e.hasQueuedWork() {
		e.idleMu.Unlock()
		return
	}
	e.idlers.Add(1)
	e.idleCond.Wait()
	e.idlers.Add(-1)
	e.idleMu.Unlock()
}

// run is the worker loop: pop own work, steal, or park; exit when the
// scheduler stops or the global pending count hits zero.
func (w *wsWorker) run() {
	e := w.eng
	for {
		if e.stop.Load() {
			return
		}
		if e.ckpt != nil {
			e.maybeCheckpoint()
		}
		s, path := w.pop()
		if s == nil && path == nil {
			s, path = e.steal(w)
		}
		if s == nil && path == nil {
			if e.pending.Load() == 0 {
				e.wakeAll()
				return
			}
			e.park()
			continue
		}
		if s == nil {
			// A demoted path: re-materialize it by replay, outside the
			// deque locks.
			if s = w.revive(path); s == nil {
				return
			}
		}
		w.process(s)
		w.clearCurrent()
	}
}

// process runs one behavior to quiescence and either records it as a
// final execution or forks its children. e.pending is decremented for the
// parent only after the children are pushed, so pending never dips to
// zero mid-expansion.
//
// A stop observed before the behavior is charged to the budget parks it
// in the leftover set, so the frontier report loses nothing; a panic
// anywhere below is recovered into a *PanicError carrying the behavior's
// replay path, and cancels the peers.
func (w *wsWorker) process(s *state) {
	e := w.eng
	defer e.pending.Add(-1)

	if e.stop.Load() {
		e.addLeftover(s)
		return
	}
	// Synchronous cancellation check: the context callback alone is not
	// prompt enough — a fast enumeration can drain the whole frontier
	// before the callback's goroutine is even scheduled.
	if cerr := e.ctx.Err(); cerr != nil {
		e.halt(classifyCtxErr(cerr), cerr)
		e.addLeftover(s)
		return
	}
	// Budget check: exactly MaxBehaviors states are processed, the state
	// that would exceed the budget stays on the frontier, and explored
	// never overshoots (compare-and-swap, since workers race to claim the
	// last slots).
	for {
		cur := e.explored.Load()
		if cur >= int64(e.opts.MaxBehaviors) {
			e.halt(ReasonMaxBehaviors, budgetError(e.opts.MaxBehaviors))
			e.addLeftover(s)
			return
		}
		if e.explored.CompareAndSwap(cur, cur+1) {
			break
		}
	}
	if e.met != nil {
		e.met.Explored.Inc(w.idx)
		depth := e.pending.Load()
		e.met.Frontier.Set(depth)
		e.met.FrontierHist.Observe(depth)
	}

	defer func() {
		if r := recover(); r != nil {
			e.halt(ReasonPanic, &PanicError{
				Recovered: r,
				Stack:     debug.Stack(),
				Program:   e.prog.String(),
				Path:      copyPath(s.path),
			})
		}
	}()

	// Phase 1+2 to fixpoint (generation unblocks after branch
	// resolution, so the two interleave).
	s.shard = w.idx
	if err := s.runToQuiescence(); err != nil {
		if err == errInconsistent {
			w.stats.Rollbacks++
			w.pool.put(s)
			return
		}
		if errors.Is(err, errNodeBudget) {
			e.halt(ReasonMaxNodes, err)
			e.addLeftover(s)
			return
		}
		e.setErr(err)
		return
	}

	if s.done() {
		if e.finals.record(s) && e.met != nil {
			e.met.Behaviors.Inc(w.idx)
		}
		w.pool.put(s)
		return
	}

	// Load–Store-graph dedup after quiescence, as Section 4.1 states it:
	// states that resolved the same loads from the same stores, in any
	// order, are one state, so only the first with a given key goes on.
	// Only the reference engine (fork-time keys off) checks here; the
	// engine proper keys each child when it forks (childKey below). A
	// child whose key changes during quiescence — a branch unlocking
	// generation — and then equals another state's key costs one Load
	// Resolution sweep, whose children the fork-time keys all prune.
	if !e.prefixPrune && !e.opts.DisableDedup {
		if !e.seen.insert(e.seen.stateKey(s)) {
			w.stats.DuplicatesDiscarded++
			if e.met != nil {
				e.met.DedupHits.Inc(w.idx)
			}
			w.pool.put(s)
			return
		}
	}

	// Phase 3: Load Resolution. Sibling children are evaluated by
	// trial-applying each resolution + closure directly on the parent and
	// rolling it back in place (state.beginTrial / graph.BeginTrial): a
	// candidate the closure rejects never pays a fork, and a surviving
	// child is materialized mid-trial with the ordinary COW fork. The
	// reference engine keeps the fork-first loop as the equivalence
	// baseline.
	var resolveStart time.Time
	if e.inst {
		resolveStart = now()
	}
	useTrial := !e.opts.disableCOW
	// A leaf parent's children are complete behaviors: they are recorded
	// (or elided as already-recorded finals) during this sweep and never
	// queued at all.
	leaf := useTrial && s.leafParent()
	progressed := false
	for lid := range s.nodes {
		if !s.eligibleCached(lid) {
			continue
		}
		cands := s.candidates(lid)
		if e.met != nil {
			e.met.Candidates.Observe(int64(len(cands)))
		}
		if e.opts.CandidateHook != nil {
			labels := make([]string, len(cands))
			for i, sid := range cands {
				labels[i] = s.nodes[sid].Label
			}
			e.opts.CandidateHook(s.nodes[lid].Label, s.nodes[lid].Addr, labels)
		}
		// The load's prior-local-store list depends only on generated
		// nodes and known addresses — constant across this load's sibling
		// resolutions, so hoist it out of the candidate loop.
		var locals []int
		if useTrial && len(cands) > 0 {
			locals = s.localPriorStores(lid, true)
		}
		for _, sid := range cands {
			// Prefix pruning, priced before any work: childKey derives the
			// would-be child's canonical key from the parent plus the
			// (load, store) pair, so a child whose key is already in the
			// seen-set is dropped without ever being evaluated. Inserting
			// the key before attempting the resolution is sound — equal
			// fork-time keys mean identical states, so a child whose
			// resolution would roll back only ever suppresses twins that
			// would roll back too. Completeness is unaffected;
			// CandidateHook has already fired (duplicates never re-fired
			// it).
			if e.prefixPrune {
				h, sig, symHit := s.childKey(e.sym, lid, sid, e.opts.dedupString)
				if !e.seen.insert(h, sig) {
					if symHit {
						w.stats.SymmetryPruned++
						if e.met != nil {
							e.met.PruneSymmetry.Inc(w.idx)
						}
					} else {
						w.stats.PrefixPruned++
						if e.met != nil {
							e.met.PrunePrefix.Inc(w.idx)
						}
					}
					progressed = true
					continue
				}
			}
			if !useTrial {
				w.stats.Forks++
				if e.met != nil {
					e.met.Forks.Inc(w.idx)
				}
				ns := s.fork(&w.pool)
				if err := ns.resolveLoad(lid, sid); err != nil {
					w.stats.Rollbacks++
					w.pool.put(ns)
					continue
				}
				if err := ns.closure(); err != nil {
					w.stats.Rollbacks++
					w.pool.put(ns)
					continue
				}
				progressed = true
				e.pending.Add(1)
				w.push(ns)
				continue
			}
			// Trial-apply on the parent: resolution + closure run in
			// place; only a surviving, non-duplicate child pays a fork.
			m := s.beginTrial(lid)
			rerr := s.resolveLoadWith(lid, sid, locals)
			if rerr == nil {
				rerr = s.closure()
			}
			if rerr != nil {
				s.rollbackTrial(m, false)
				w.stats.Rollbacks++
				w.stats.TrialRollbacks++
				w.stats.ChildrenElided++
				if e.met != nil {
					e.met.TrialRollbacks.Inc(w.idx)
					e.met.ChildrenElided.Inc(w.idx)
				}
				continue
			}
			if leaf && s.done() {
				// The trial state IS the completed child behavior. record
				// copies what a new one reports, so the child is recorded
				// straight from the trial (or found already recorded) and
				// then rolled back in place: it is never forked.
				if e.finals.record(s) && e.met != nil {
					e.met.Behaviors.Inc(w.idx)
				}
				s.rollbackTrial(m, false)
				w.stats.ChildrenElided++
				if e.met != nil {
					e.met.ChildrenElided.Inc(w.idx)
				}
				progressed = true
				continue
			}
			// Interior survivor: materialize mid-trial. The child is
			// content-identical to a reference fork-then-resolve child.
			ns := s.fork(&w.pool)
			s.rollbackTrial(m, true)
			progressed = true
			w.stats.Forks++
			if e.met != nil {
				e.met.Forks.Inc(w.idx)
			}
			e.pending.Add(1)
			w.push(ns)
		}
	}
	if e.inst {
		if e.met != nil {
			e.met.ResolveNs.Add(w.idx, now().Sub(resolveStart).Nanoseconds())
		}
		e.tr.Span("load-resolution", "phase", w.idx, resolveStart)
	}
	if !progressed {
		// No eligible load made progress. With speculation every
		// candidate of every eligible load may roll back — that just
		// kills this behavior. Anything else is an engine invariant
		// violation.
		if s.hasEligibleLoad() {
			w.stats.Rollbacks++
			w.pool.put(s)
			return
		}
		e.setErr(fmt.Errorf("core: enumeration stalled with unresolved loads (model %s)", e.pol.Name()))
		return
	}
	// The children forked above share only frozen rows with the parent,
	// and the behaviors recorded above are copies, so the parent's
	// buffers are free to recycle.
	w.pool.put(s)
}
