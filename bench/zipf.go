package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/serve"
	"storeatomicity/internal/telemetry"
)

// serve-zipf: open-loop traffic at a fixed rate against an in-process
// mmserve over loopback HTTP. Hits (decode, fingerprint, cache, HTTP)
// sit beside misses (enumerate, render, cache fill, eviction, journal).

const (
	// serveRate is the frozen Poisson arrival rate in requests per
	// second. At 700 req/s the two connections were busy most of the
	// time on the commit that defined the benchmark and the tail moved by
	// a third between runs; half that rate keeps it repeatable (see
	// README.md).
	serveRate = 350
	// serveSkew is the zipf exponent of key popularity.
	serveSkew = 1.1
	// serveConns bounds the client's connections and the server's
	// concurrent enumerations alike.
	serveConns = 2
	// serveCacheBytes is below the working set of bodies, so the cache
	// evicts, and at least 16 times the largest body, so that every one
	// of the cache's 16 shards can hold it.
	serveCacheBytes = 6 << 20
	// serveVerifyKeys are byte-compared with a local enumeration.
	serveVerifyKeys = 8
)

// serveKey is one cache key: a request body and what it asks for.
type serveKey struct {
	name  string
	req   []byte
	test  *litmus.Test
	model litmus.Model
}

// serveOpts are the engine options the service resolves a request to,
// which the verification oracle must match.
func serveOpts(m litmus.Model) core.Options {
	opts := engineOpts()
	opts.Speculative = m.Speculative
	opts.MaxBehaviors = 1 << 20 // the server's default cap
	return opts
}

// genServeKeys returns the keys in popularity order, rank 0 hottest:
// every registry test under every model in registry order, plus
// synthetic wide-SB programs (expensive misses) at every fifth rank from
// rank 2, alternating between the two shapes, the j-th storing the value
// j. The keys and their ranks are the same for every seed; the seed
// draws the traffic over them (genArrivals). Which keys share a cache
// shard decides how often each is evicted, and a seed that moved keys
// between ranks moved every metric of a run with it (capacity ranged
// 890–2110 req/s over five seeds).
func genServeKeys(synthetic int, shapes [2][2]int) ([]serveKey, error) {
	var reg []serveKey
	for _, tc := range litmus.Registry() {
		for _, m := range litmus.Models() {
			req, err := json.Marshal(serve.EnumRequest{Test: tc.Name, Model: m.Name})
			if err != nil {
				return nil, err
			}
			reg = append(reg, serveKey{name: tc.Name + "/" + m.Name, req: req, test: tc, model: m})
		}
	}
	relaxed, _ := litmus.ModelByName("Relaxed")
	keys := make([]serveKey, 0, len(reg)+synthetic)
	for r, j := 0, 0; len(keys) < len(reg)+synthetic; r++ {
		if r%5 != 2 || j == synthetic {
			keys = append(keys, reg[0])
			reg = reg[1:]
			continue
		}
		sh := shapes[j%2]
		j++
		src := wideSB(sh[0], sh[1], j)
		tc, err := litmus.Parse(src)
		if err != nil {
			return nil, err
		}
		req, err := json.Marshal(serve.EnumRequest{Litmus: src, Model: relaxed.Name})
		if err != nil {
			return nil, err
		}
		keys = append(keys, serveKey{name: tc.Name, req: req, test: tc, model: relaxed})
	}
	return keys, nil
}

// arrival is one scheduled request: when it is due after the phase
// starts, and the rank of its key.
type arrival struct {
	at  time.Duration
	key int
}

// genArrivals draws rate·d arrivals over [0, d) as a Poisson process
// conditioned on its count: times uniform and sorted. Key popularity is
// zipf over n ranks, with rank r's count fixed at its share of the
// total (largest remainder) and the order shuffled, so that every seed
// sends each key equally often.
func genArrivals(seed int64, rate float64, d time.Duration, n int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	total := int(rate*d.Seconds() + 0.5)
	weights := make([]float64, n)
	var sum float64
	for r := range weights {
		weights[r] = math.Pow(1+float64(r), -serveSkew)
		sum += weights[r]
	}
	ranks := make([]int, 0, total)
	rest := make([]int, n)
	for r, w := range weights {
		exact := w / sum * float64(total)
		for k := 0; k < int(exact); k++ {
			ranks = append(ranks, r)
		}
		rest[r] = r
		weights[r] = exact - math.Floor(exact)
	}
	sort.SliceStable(rest, func(a, b int) bool { return weights[rest[a]] > weights[rest[b]] })
	for _, r := range rest[:total-len(ranks)] {
		ranks = append(ranks, r)
	}
	rng.Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	at := make([]time.Duration, total)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	out := make([]arrival, total)
	for i := range out {
		out[i] = arrival{at[i], ranks[i]}
	}
	return out
}

type serveZipf struct {
	seed      int64
	synthetic int
	shapes    [2][2]int
	tally     *tally

	keys   []serveKey
	first  [][]byte // each key's body from the warm-up; every later body must equal it
	dir    string
	srv    *serve.Server
	client *http.Client
	base   string
	enum   *telemetry.EnumMetrics // server engine metrics, traced runs only

	st0, st1     serve.Status
	enum0, enum1 telemetry.Snapshot
	hitNs        []float64 // client send→response of hits
	waitMs       []float64 // due→send
	lateMax      time.Duration
}

func newServeZipf(cfg config, t *tally) workload {
	w := &serveZipf{seed: cfg.seed, synthetic: 50, shapes: [2][2]int{{5, 2}, {4, 2}}, tally: t}
	if cfg.tiny {
		w.synthetic, w.shapes = 4, [2][2]int{{4, 2}, {3, 2}}
	}
	if cfg.trace {
		w.enum = telemetry.NewEnumMetrics(nil)
	}
	return w
}

// setup builds the keys, starts a server with a fresh journal, and warms
// it with every key once, coldest first, so the hottest keys are the
// most recently cached when the phase starts.
func (w *serveZipf) setup(ctx context.Context) error {
	keys, err := genServeKeys(w.synthetic, w.shapes)
	if err != nil {
		return err
	}
	w.keys = keys
	if w.dir, err = os.MkdirTemp("", "bench-serve-*"); err != nil {
		return err
	}
	opts := engineOpts()
	opts.Metrics = w.enum
	w.srv, err = serve.NewServer(serve.Config{
		Listen:      "127.0.0.1:0",
		CacheBytes:  serveCacheBytes,
		StorePath:   filepath.Join(w.dir, "journal.ndjson"),
		MaxInflight: serveConns,
		Opts:        opts,
	})
	if err != nil {
		return err
	}
	if err := w.srv.Start(); err != nil {
		return err
	}
	w.base = "http://" + w.srv.Addr() + serve.PathEnumerate
	w.client = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
		DisableCompression:  true,
	}}
	w.first = make([][]byte, len(keys))
	for r := len(keys) - 1; r >= 0; r-- {
		status, _, body, err := w.post(ctx, r)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %v", keys[r].name, status, err)
		}
		w.first[r] = body
	}
	return nil
}

// post sends key r's request and returns the status, the X-Cache class
// and the body.
func (w *serveZipf) post(ctx context.Context, r int) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base, bytes.NewReader(w.keys[r].req))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), body, err
}

// run replays the phase's arrival schedule. The generator sends each
// request when due to one of serveConns client connections; a request
// whose connections are both busy waits, and its latency counts from
// when it was due.
func (w *serveZipf) run(ctx context.Context, ph *phase) {
	arrivals := genArrivals(w.seed, serveRate, ph.target, len(w.keys))
	w.hitNs, w.waitMs, w.lateMax = nil, nil, 0
	w.st0, w.enum0 = w.srv.StatusSnapshot(), w.enum.Snapshot()
	queue := make(chan int, len(arrivals))
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	ph.begin()
	for lane := 1; lane <= serveConns; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range queue {
				a := arrivals[i]
				due := ph.start.Add(a.at)
				send := time.Now()
				status, class, body, err := w.post(ctx, a.key)
				done := time.Now()
				ph.tr.add(ph.tr.reserve(), "serve.request", lane, i, 0, send, done)
				ph.record(done.Sub(due))
				mu.Lock()
				w.waitMs = append(w.waitMs, float64(send.Sub(due).Nanoseconds())/1e6)
				if class == "hit" {
					w.hitNs = append(w.hitNs, float64(done.Sub(send).Nanoseconds()))
				}
				mu.Unlock()
				if !w.tally.check(err == nil && status == http.StatusOK, "%s: status %d: %v", w.keys[a.key].name, status, err) {
					continue
				}
				if !bytes.Equal(body, w.first[a.key]) {
					w.tally.fail("%s: body differs from the first body served for the key", w.keys[a.key].name)
				}
				ph.tr.add(ph.tr.reserve(), "bench.check", lane, i, 0, done, time.Now())
			}
		}(lane)
	}
	for i, a := range arrivals {
		due := ph.start.Add(a.at)
		if d := time.Until(due); d > 0 {
			idle := time.Now()
			time.Sleep(d)
			ph.tr.add(ph.tr.reserve(), idleSpan, 0, i, 0, idle, time.Now())
		}
		if late := time.Since(due); late > w.lateMax {
			w.lateMax = late
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	ph.finish(true)
	w.st1, w.enum1 = w.srv.StatusSnapshot(), w.enum.Snapshot()
	for r := range w.keys {
		ph.golden.add(r, string(w.first[r]))
	}
}

func (w *serveZipf) goldenOps() int { return len(w.keys) }

// verify byte-compares the hottest keys' bodies with a local width-1
// enumeration through serve.ComputeBody, and checks the cache admitted
// every body.
func (w *serveZipf) verify(ctx context.Context) {
	for r := 0; r < serveVerifyKeys && r < len(w.keys); r++ {
		k := w.keys[r]
		opts := serveOpts(k.model)
		fp := core.ProgramFingerprint(k.model.Name, k.test.Build(), opts)
		want, _, err := serve.ComputeBody(ctx, k.test, k.model, opts, 1, fp)
		w.tally.check(err == nil && bytes.Equal(want, w.first[r]),
			"%s: served body differs from a local enumeration (err %v)", k.name, err)
	}
	st := w.srv.StatusSnapshot()
	w.tally.check(st.Cache.Oversize == 0, "serve: %d bodies refused as oversize", st.Cache.Oversize)
}

// layers reports the service counters over the traced phase from the
// server's /status ledger, plus client-side timing.
func (w *serveZipf) layers(ph *phase, v values) {
	c0, c1 := w.st0.Cache, w.st1.Cache
	hits, misses := float64(c1.Hits-c0.Hits), float64(c1.Misses-c0.Misses)
	v["serve.hit_ratio"] = ratio(hits, misses)
	v["serve.hits"] = ph.perOp(hits)
	v["serve.misses"] = ph.perOp(misses)
	v["serve.coalesced"] = ph.perOp(float64(c1.Coalesced - c0.Coalesced))
	v["serve.evictions"] = ph.perOp(float64(c1.Evictions - c0.Evictions))
	v["serve.oversize"] = float64(c1.Oversize - c0.Oversize)
	v["serve.rejected"] = float64(w.st1.Rejected - w.st0.Rejected)
	v["serve.cache_kb"] = float64(c1.Bytes) / 1024
	// The server keeps exact quantiles over its last 4096 requests of
	// each class, which may reach back before the phase.
	v["serve.hit_handler_us_p50"] = w.st1.HitLatency.P50Ns / 1e3
	v["serve.hit_handler_us_p99"] = w.st1.HitLatency.P99Ns / 1e3
	v["serve.miss_handler_ms_p50"] = w.st1.MissLatency.P50Ns / 1e6
	v["serve.miss_handler_ms_p99"] = w.st1.MissLatency.P99Ns / 1e6
	sort.Float64s(w.hitNs)
	v["serve.transport_us_p50"] = (quantile(w.hitNs, 50) - w.st1.HitLatency.P50Ns) / 1e3
	sort.Float64s(w.waitMs)
	v["serve.conn_wait_ms_p99"] = quantile(w.waitMs, 99)
	v["serve.generator_late_ms_max"] = float64(w.lateMax.Nanoseconds()) / 1e6
	if j0, j1 := w.st0.Journal, w.st1.Journal; j0 != nil && j1 != nil {
		writes := float64(j1.LogicalWrites - j0.LogicalWrites)
		v["serve.journal_logical_writes"] = ph.perOp(writes)
		if writes > 0 {
			v["serve.journal_db_ratio"] = float64(j1.DBCalls-j0.DBCalls) / writes
		}
	}
	d := snapshotDelta(w.enum0, w.enum1)
	v["serve.engine_states"] = ph.perOp(float64(d["enum_states_explored_total"]))
	engineNs := d["enum_phase_generate_ns_total"] + d["enum_phase_execute_ns_total"] + d["enum_phase_resolve_ns_total"]
	coreLayer(v, d, ph.ops, d, ph.ops, float64(engineNs)/1e9)
	for _, name := range []string{"serve.oversize", "serve.rejected"} {
		w.tally.check(v[name] == 0, "serve-zipf: %s = %v, want 0", name, v[name])
	}
}

// snapshotDelta is b − a for counters; quantile and gauge keys keep b's
// value.
func snapshotDelta(a, b telemetry.Snapshot) telemetry.Snapshot {
	d := telemetry.Snapshot{}
	for k, v := range b {
		switch {
		case strings.HasSuffix(k, "_p50"), strings.HasSuffix(k, "_p95"), strings.HasSuffix(k, "_p99"),
			k == "frontier_resident_peak_bytes":
			d[k] = v
		default:
			d[k] = v - a[k]
		}
	}
	return d
}

func (w *serveZipf) close() error {
	var err error
	if w.srv != nil {
		err = w.srv.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.dir != "" {
		if rerr := os.RemoveAll(w.dir); err == nil {
			err = rerr
		}
	}
	return err
}
