// Package serve is enumeration-as-a-service: a long-running stdlib-only
// HTTP/JSON daemon that accepts litmus tests (by registry name or
// inline .litmus source) plus a model and budget options, enumerates
// the behavior set, and serves repeat traffic from a fingerprint-keyed
// memo cache.
//
// The enabling observation is that a memory model in this codebase is a
// pure function: core.ProgramFingerprint captures exactly the inputs
// that determine the behavior set (model, program listing, speculation,
// budget cut-offs — see internal/core/fingerprint.go), and the
// canonical response body is a pure function of that key (sorted
// outcome and execution lines, no timing, no stats). So a cached body
// is bit-identical to a fresh enumeration's — the property the churn
// tests and mmload -verify enforce — and the cache can never serve a
// wrong answer, only cost a recomputation when cold.
//
// The service stack, top to bottom:
//
//   - admission control: at most MaxInflight enumerations run at once;
//     excess misses are refused with 429 + Retry-After instead of
//     piling up, and per-request MaxBehaviors/timeout are clamped to
//     server caps so one request cannot monopolize the process;
//   - single-flight: concurrent identical misses coalesce onto one
//     enumeration (the serve_cache_coalesced_total counter counts the
//     riders);
//   - one LRU memo cache under the -cache-mem byte budget (cache.go);
//   - write-behind batched NDJSON persistence (journal.go): flush by
//     count or interval, one file write per batch, checksummed records,
//     replay-and-compact on startup so a restart warms the cache.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
)

// Endpoint paths.
const (
	PathEnumerate = "/enumerate"
	PathStatus    = "/status"
	PathMetrics   = "/metrics"
	PathHealthz   = "/healthz"
)

// Config tunes a Server.
type Config struct {
	// Listen is the bind address ("127.0.0.1:0" for an ephemeral port).
	Listen string
	// CacheBytes budgets the memo cache (<= 0 = unbounded).
	CacheBytes int64
	// StorePath, when non-empty, persists the cache as a write-behind
	// NDJSON journal: replayed (and compacted) on startup, appended on
	// every cache fill.
	StorePath string
	// FlushOps / FlushInterval are the journal batching thresholds
	// (defaults 64 records / 10ms).
	FlushOps      int
	FlushInterval time.Duration
	// MaxInflight bounds concurrent enumerations; excess misses get
	// 429 + Retry-After (default 4).
	MaxInflight int
	// MaxBehaviorsCap clamps per-request MaxBehaviors (default the
	// engine default, 1<<20).
	MaxBehaviorsCap int
	// TimeoutCap clamps per-request timeouts (default 30s). It is also
	// the timeout for requests that do not ask for one.
	TimeoutCap time.Duration
	// EngineWorkers is the per-enumeration engine width. The default 1
	// (sequential) is deliberate: a sequential budget stop truncates the
	// behavior set deterministically, so even MaxBehaviors-capped
	// responses stay pure functions of the cache key and cacheable.
	// Wider engines still produce bit-identical COMPLETE sets, but
	// their budget-stopped prefixes are schedule-dependent, so with
	// EngineWorkers > 1 incomplete results are not cached.
	EngineWorkers int
	// Opts carries options the cache key leaves out: the dedup and
	// frontier budgets and telemetry, which leave even truncated bodies
	// unchanged (see core.ProgramFingerprint). DisableDedup and
	// CandidateHook change truncated bodies, so they must stay unset.
	// Behavior-set fields are overwritten per request.
	Opts core.Options
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	if c.MaxBehaviorsCap <= 0 {
		c.MaxBehaviorsCap = 1 << 20
	}
	if c.TimeoutCap <= 0 {
		c.TimeoutCap = 30 * time.Second
	}
	if c.EngineWorkers <= 0 {
		c.EngineWorkers = 1
	}
	return c
}

// EnumRequest is the POST /enumerate body. Exactly one of Test (a
// litmus.Registry name) or Litmus (inline .litmus source) names the
// program.
type EnumRequest struct {
	Test   string `json:"test,omitempty"`
	Litmus string `json:"litmus,omitempty"`
	// Model names a litmus.Models entry ("SC", "TSO", "Relaxed", ...).
	Model string `json:"model"`
	// MaxBehaviors/MaxNodes override the engine budgets (0 = default),
	// clamped to the server caps. They are part of the cache key.
	MaxBehaviors int `json:"max_behaviors,omitempty"`
	MaxNodes     int `json:"max_nodes,omitempty"`
	// TimeoutMillis bounds this request's enumeration wall clock
	// (0 = server cap). NOT part of the cache key: a timeout changes
	// when you get an answer, never which answer is correct.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// EnumResponse is the canonical response body — a pure function of the
// cache key (model + fingerprint + the deterministic enumeration), so
// cached and fresh responses are bit-identical. Deliberately absent:
// stats, timings, test names, anything request- or run-scoped.
type EnumResponse struct {
	Model       string `json:"model"`
	Fingerprint string `json:"fingerprint"` // %016x of core.ProgramFingerprint
	Behaviors   int    `json:"behaviors"`
	// Outcomes are the distinct load-value outcome keys, sorted.
	Outcomes []string `json:"outcomes"`
	// Executions are the canonical "sourceKey => outcomeKey" lines,
	// sorted — the same rendering internal/dist's bit-identity check
	// uses, one line per distinct execution.
	Executions []string `json:"executions"`
	// IncompleteReason is set when the enumeration stopped at a budget
	// ("max-behaviors", "max-nodes"); empty means the set is exhaustive.
	IncompleteReason string `json:"incomplete_reason,omitempty"`
}

// Server is the enumeration service.
type Server struct {
	cfg   Config
	cache *Cache
	store *Store // nil without StorePath

	sem      chan struct{}
	inflight atomic.Int64
	requests atomic.Int64
	rejected atomic.Int64
	badReqs  atomic.Int64

	replayed int
	dropped  int

	hitLat  *latWindow
	missLat *latWindow

	start     time.Time
	ln        net.Listener
	srv       *http.Server
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// NewServer builds the server and, when cfg.StorePath is set, warms the
// cache from the journal (verifying and compacting it) — it does not
// listen yet; call Start.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheBytes),
		sem:     make(chan struct{}, cfg.MaxInflight),
		hitLat:  newLatWindow(),
		missLat: newLatWindow(),
		start:   time.Now(),
	}
	if cfg.StorePath != "" {
		recs, dropped, err := ReplayFile(cfg.StorePath)
		if err != nil {
			return nil, err
		}
		s.dropped = dropped
		for _, rec := range recs {
			fp, perr := strconv.ParseUint(rec.FP, 16, 64)
			if perr != nil {
				s.dropped++
				continue
			}
			if s.cache.Put(fp, []byte(rec.Body)) {
				s.replayed++
			}
		}
		// Shed torn tails and duplicate appends before reopening for
		// append, so the journal stays proportional to the corpus.
		if len(recs) > 0 || dropped > 0 {
			if err := CompactFile(cfg.StorePath, recs); err != nil {
				return nil, err
			}
		}
		st, err := OpenStore(cfg.StorePath, cfg.FlushOps, cfg.FlushInterval)
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	return s, nil
}

// Start binds and serves in the background.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Listen)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc(PathEnumerate, s.handleEnumerate)
	mux.HandleFunc(PathStatus, s.handleStatus)
	mux.HandleFunc(PathMetrics, s.handleMetrics)
	mux.HandleFunc(PathHealthz, func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	s.srv = &http.Server{Handler: mux}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	}()
	return nil
}

// Addr returns the bound address (valid after Start).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down and flushes the journal. It is
// idempotent: later calls return the first call's error.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		var err error
		if s.srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err = s.srv.Shutdown(ctx)
			cancel()
			s.wg.Wait()
		}
		if s.store != nil {
			if serr := s.store.Close(); err == nil {
				err = serr
			}
		}
		s.closeErr = err
	})
	return s.closeErr
}

// resolve turns a request into the enumeration inputs and the cache
// key. The returned options have every behavior-set field (model
// speculation, clamped budgets) already applied, so the fingerprint and
// the enumeration cannot disagree.
func (s *Server) resolve(req *EnumRequest) (*litmus.Test, litmus.Model, core.Options, uint64, error) {
	var t *litmus.Test
	switch {
	case req.Test != "" && req.Litmus == "":
		var ok bool
		if t, ok = litmus.ByName(req.Test); !ok {
			return nil, litmus.Model{}, core.Options{}, 0, fmt.Errorf("unknown test %q", req.Test)
		}
	case req.Litmus != "" && req.Test == "":
		var err error
		if t, err = litmus.Parse(req.Litmus); err != nil {
			return nil, litmus.Model{}, core.Options{}, 0, fmt.Errorf("litmus source: %v", err)
		}
	default:
		return nil, litmus.Model{}, core.Options{}, 0, fmt.Errorf("exactly one of \"test\" or \"litmus\" is required")
	}
	m, ok := litmus.ModelByName(req.Model)
	if !ok {
		return nil, litmus.Model{}, core.Options{}, 0, fmt.Errorf("unknown model %q", req.Model)
	}
	opts := s.cfg.Opts
	opts.Speculative = m.Speculative
	opts.MaxBehaviors = req.MaxBehaviors
	if opts.MaxBehaviors <= 0 || opts.MaxBehaviors > s.cfg.MaxBehaviorsCap {
		opts.MaxBehaviors = s.cfg.MaxBehaviorsCap
	}
	opts.MaxNodes = req.MaxNodes // 0 = engine default; fingerprint normalizes
	fp := core.ProgramFingerprint(m.Name, t.Build(), opts)
	return t, m, opts, fp, nil
}

// ComputeBody runs the enumeration and renders the canonical response
// body for the given resolved request. Exported so mmload's -verify
// mode can build the local width-1 oracle a server response must be
// bit-identical to. cacheable reports whether the body is a pure
// function of the key (complete, or budget-truncated by the engine at
// width 1, whose exploration order is deterministic).
func ComputeBody(ctx context.Context, t *litmus.Test, m litmus.Model, opts core.Options, workers int, fp uint64) (body []byte, cacheable bool, err error) {
	res, rerr := litmus.RunContext(ctx, t, m, opts, workers)
	if rerr != nil && res == nil {
		return nil, false, rerr
	}
	reason := ""
	if res.Incomplete != nil {
		reason = string(res.Incomplete.Reason)
		switch res.Incomplete.Reason {
		case core.ReasonMaxBehaviors, core.ReasonMaxNodes:
			// Budget stops are deterministic only at width 1
			// (workers == 1): the paper's procedure explores a fixed
			// order, so "the first N behaviors" is well-defined.
		default:
			// Cancellation/deadline truncation depends on wall clock —
			// never cache, never pretend it is canonical.
			return nil, false, rerr
		}
	}
	resp := EnumResponse{
		Model:            m.Name,
		Fingerprint:      fmt.Sprintf("%016x", fp),
		Behaviors:        len(res.Executions),
		Outcomes:         []string{},
		Executions:       []string{},
		IncompleteReason: reason,
	}
	for k := range res.OutcomeSet() {
		resp.Outcomes = append(resp.Outcomes, k)
	}
	sort.Strings(resp.Outcomes)
	for _, e := range res.Executions {
		resp.Executions = append(resp.Executions, e.SourceKey()+" => "+e.Key())
	}
	sort.Strings(resp.Executions)
	body, err = json.Marshal(&resp)
	if err != nil {
		return nil, false, err
	}
	cacheable = res.Incomplete == nil || workers == 1
	return body, cacheable, nil
}

// handleEnumerate is the request path: cache → single-flight →
// admission → enumerate → cache fill + journal append.
func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Add(1)
	// One clock for both classes, started before decode/resolve, so the
	// hit/miss latency split reflects the full handler cost and the
	// reported speedup cannot flatter the cache by excluding per-request
	// overheads.
	started := time.Now()
	var req EnumRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.badReqs.Add(1)
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	t, m, opts, fp, err := s.resolve(&req)
	if err != nil {
		s.badReqs.Add(1)
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}

	if body, ok := s.cache.Get(fp); ok {
		s.hitLat.Observe(time.Since(started).Nanoseconds())
		writeBody(w, http.StatusOK, "hit", body)
		return
	}

	f, leader := s.cache.Begin(fp)
	if !leader {
		// The leader finished between our Get and Begin, or we rode its
		// flight; either way its outcome is ours.
		writeFlight(w, f)
		return
	}

	// Leader: double-check the cache (a previous leader may have filled
	// it between our miss and our Begin), then admit and enumerate.
	if body, ok := s.cache.peek(fp); ok {
		s.cache.Finish(fp, f, http.StatusOK, body, 0)
		s.hitLat.Observe(time.Since(started).Nanoseconds())
		writeBody(w, http.StatusOK, "hit", body)
		return
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.rejected.Add(1)
		s.cache.Finish(fp, f, http.StatusTooManyRequests,
			[]byte("busy: all enumeration slots in flight\n"), 1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "busy: all enumeration slots in flight", http.StatusTooManyRequests)
		return
	}
	s.inflight.Add(1)

	timeout := s.cfg.TimeoutCap
	if req.TimeoutMillis > 0 {
		if d := time.Duration(req.TimeoutMillis) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	// Detached from r.Context() on purpose: coalesced followers share
	// this enumeration, so the leader's client disconnecting must not
	// cancel it out from under them.
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	body, cacheable, err := ComputeBody(ctx, t, m, opts, s.cfg.EngineWorkers, fp)
	cancel()
	<-s.sem
	s.inflight.Add(-1)

	if err != nil {
		msg := "enumeration failed: " + err.Error() + "\n"
		s.cache.Finish(fp, f, http.StatusGatewayTimeout, []byte(msg), 0)
		http.Error(w, msg, http.StatusGatewayTimeout)
		return
	}
	if cacheable {
		s.cache.Put(fp, body)
		if s.store != nil {
			s.store.Append(m.Name, fp, body)
		}
	}
	s.cache.Finish(fp, f, http.StatusOK, body, 0)
	s.missLat.Observe(time.Since(started).Nanoseconds())
	writeBody(w, http.StatusOK, "miss", body)
}

func writeBody(w http.ResponseWriter, status int, xcache string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", xcache)
	w.WriteHeader(status)
	w.Write(body)
}

// writeFlight renders a coalesced follower's response from the leader's
// published outcome.
func writeFlight(w http.ResponseWriter, f *flight) {
	if f.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(f.retryAfter))
	}
	xcache := "coalesced"
	if f.status != http.StatusOK {
		http.Error(w, string(f.body), f.status)
		return
	}
	writeBody(w, f.status, xcache, f.body)
}

// Status is the GET /status run ledger.
type Status struct {
	UptimeMillis int64          `json:"uptime_ms"`
	Requests     int64          `json:"requests"`
	Rejected     int64          `json:"rejected"`
	BadRequests  int64          `json:"bad_requests,omitempty"`
	Inflight     int64          `json:"inflight"`
	MaxInflight  int            `json:"max_inflight"`
	Cache        CacheStats     `json:"cache"`
	Journal      *JournalStats  `json:"journal,omitempty"`
	HitLatency   LatencySummary `json:"hit_latency"`
	MissLatency  LatencySummary `json:"miss_latency"`
}

// StatusSnapshot assembles the ledger (also used by tests directly).
func (s *Server) StatusSnapshot() Status {
	st := Status{
		UptimeMillis: time.Since(s.start).Milliseconds(),
		Requests:     s.requests.Load(),
		Rejected:     s.rejected.Load(),
		BadRequests:  s.badReqs.Load(),
		Inflight:     s.inflight.Load(),
		MaxInflight:  s.cfg.MaxInflight,
		Cache:        s.cache.Stats(),
		HitLatency:   s.hitLat.Summary(),
		MissLatency:  s.missLat.Summary(),
	}
	if s.store != nil {
		js := s.store.Stats()
		js.Replayed, js.Dropped = s.replayed, s.dropped
		st.Journal = &js
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.StatusSnapshot())
}

// handleMetrics writes the serve counters in Prometheus text format.
// It renders the same snapshot as /status, from the server's own
// atomics, so the two endpoints always agree.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.StatusSnapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	put := func(name string, v int64) { fmt.Fprintf(w, "%s %d\n", name, v) }
	put("serve_cache_hits_total", st.Cache.Hits)
	put("serve_cache_misses_total", st.Cache.Misses)
	put("serve_cache_coalesced_total", st.Cache.Coalesced)
	put("serve_cache_evictions_total", st.Cache.Evictions)
	put("serve_cache_oversize_total", st.Cache.Oversize)
	put("serve_cache_entries", st.Cache.Entries)
	put("serve_cache_bytes", st.Cache.Bytes)
	put("serve_requests_total", st.Requests)
	put("serve_rejected_total", st.Rejected)
	put("serve_inflight", st.Inflight)
	if st.Journal != nil {
		put("serve_journal_logical_writes_total", st.Journal.LogicalWrites)
		put("serve_journal_db_calls_total", st.Journal.DBCalls)
		put("serve_journal_flushes_total", st.Journal.Flushes)
		put("serve_journal_replayed_total", int64(st.Journal.Replayed))
		put("serve_journal_dropped_total", int64(st.Journal.Dropped))
	}
	for _, c := range []struct {
		name string
		l    LatencySummary
	}{{"serve_hit_latency_ns", st.HitLatency}, {"serve_miss_latency_ns", st.MissLatency}} {
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %.0f\n", c.name, c.l.P50Ns)
		fmt.Fprintf(w, "%s{quantile=\"0.95\"} %.0f\n", c.name, c.l.P95Ns)
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %.0f\n", c.name, c.l.P99Ns)
		fmt.Fprintf(w, "%s_count %d\n", c.name, c.l.Count)
	}
}

// latWindow keeps the last windowSize latencies per class so /status
// can report exact (not bucketed) quantiles over recent traffic; exact
// matters because the hit path is measured in microseconds where
// histogram bucket edges would dominate the estimate.
const windowSize = 4096

type latWindow struct {
	mu    sync.Mutex
	ring  []int64
	next  int
	count int64
}

func newLatWindow() *latWindow { return &latWindow{ring: make([]int64, 0, windowSize)} }

func (l *latWindow) Observe(ns int64) {
	l.mu.Lock()
	if len(l.ring) < windowSize {
		l.ring = append(l.ring, ns)
	} else {
		l.ring[l.next] = ns
		l.next = (l.next + 1) % windowSize
	}
	l.count++
	l.mu.Unlock()
}

// LatencySummary carries exact quantiles over the recent window.
type LatencySummary struct {
	Count int64   `json:"count"`
	P50Ns float64 `json:"p50_ns"`
	P95Ns float64 `json:"p95_ns"`
	P99Ns float64 `json:"p99_ns"`
}

func (l *latWindow) Summary() LatencySummary {
	l.mu.Lock()
	sorted := append([]int64(nil), l.ring...)
	count := l.count
	l.mu.Unlock()
	sum := LatencySummary{Count: count}
	if len(sorted) == 0 {
		return sum
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	q := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return float64(sorted[i])
	}
	sum.P50Ns, sum.P95Ns, sum.P99Ns = q(0.50), q(0.95), q(0.99)
	return sum
}
