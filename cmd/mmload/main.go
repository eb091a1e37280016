// Command mmload replays a zipf-skewed litmus workload against a
// running mmserve and reports what the cache actually delivered:
// achieved hit rate, exact per-class latency quantiles (hit vs miss vs
// coalesced), the journal's batching ratio, and optional bit-identity
// verification of server responses against a local sequential
// enumeration oracle.
//
// Usage:
//
//	mmload -addr HOST:PORT [-model NAME] [-tests A,B,C] [-skew S]
//	       [-concurrency N] [-requests N] [-seed N] [-verify N]
//	       [-min-hit-rate F] [-min-hit-speedup F] [-max-db-ratio F]
//
// The corpus is ranked by the seeded zipf draw: rank 0 (the first test
// in -tests) is the hottest key. Skew must exceed 1 (rand.NewZipf's
// domain); higher is hotter. Gates make mmload a CI check: when a
// -min-* / -max-* gate fails, the report still prints and the exit
// status is 1.
//
// Example:
//
//	mmload -addr 127.0.0.1:7090 -tests SB,MP,LB,IRIW -skew 1.4 \
//	       -concurrency 8 -requests 500 -verify 4 -min-hit-rate 0.8
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"storeatomicity/internal/cli"
	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/serve"
)

// defaultCorpus mixes cheap classics with the heavier figures so a
// skewed replay has both hot fast keys and expensive tail keys.
const defaultCorpus = "SB,MP,LB,IRIW,Figure3,Figure5,Figure10,SB3W"

// corpusEntry is one zipf rank: either a registry test (Test set) or a
// generated synthetic program (Src set).
type corpusEntry struct {
	name string
	test string // registry name, XOR
	src  string // inline litmus source
}

// genWideSB generates the synthetic heavy key: an n-thread
// store-buffering program where each thread stores its own location and
// loads the next `loads` neighbors. Enumeration cost grows
// combinatorially in both knobs (4×2 ≈ tens of ms, 5×2 ≈ hundreds),
// which is the point: a corpus whose MISSES are expensive makes the
// cache's hit/miss separation measurable above HTTP noise. val is
// folded into every store so each generated program is a distinct
// fingerprint.
func genWideSB(threads, loads, val int) string {
	src := fmt.Sprintf("name SBW%dx%d-%d\n", threads, loads, val)
	for i := 0; i < threads; i++ {
		src += fmt.Sprintf("thread T%d\n  S m%d, %d\n", i, i, val)
		for k := 1; k <= loads; k++ {
			src += fmt.Sprintf("  r%d = L m%d\n", k, (i+k)%threads)
		}
	}
	return src
}

type sample struct {
	class string // hit | miss | coalesced
	ns    int64
}

type report struct {
	Requests    int                `json:"requests"`
	Hits        int                `json:"hits"`
	Misses      int                `json:"misses"`
	Coalesced   int                `json:"coalesced"`
	Rejected    int                `json:"rejected"`
	Errors      int                `json:"errors"`
	HitRate     float64            `json:"hit_rate"`
	DurationMs  int64              `json:"duration_ms"`
	Throughput  float64            `json:"requests_per_sec"`
	Latency     map[string]latency `json:"latency_ms"`
	HitSpeedup  float64            `json:"hit_speedup_p95,omitempty"`
	DBRatio     float64            `json:"journal_db_ratio,omitempty"`
	Verified    int                `json:"verified,omitempty"`
	GateFailure []string           `json:"gate_failures,omitempty"`

	// Server* mirror the server's own /status latency windows: the
	// handler cost alone, without loopback and client scheduling noise,
	// which at microsecond hit latencies otherwise dominates the
	// client-side quantiles. The -min-hit-speedup gate uses these.
	ServerHitP95Ms  float64 `json:"server_hit_p95_ms,omitempty"`
	ServerMissP95Ms float64 `json:"server_miss_p95_ms,omitempty"`
	ServerSpeedup   float64 `json:"server_hit_speedup_p95,omitempty"`
}

type latency struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func quantiles(ns []int64) latency {
	l := latency{Count: len(ns)}
	if len(ns) == 0 {
		return l
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	q := func(p float64) float64 {
		return float64(sorted[int(p*float64(len(sorted)-1))]) / 1e6
	}
	l.P50, l.P95, l.P99 = q(0.50), q(0.95), q(0.99)
	return l
}

func main() {
	var (
		addr     = flag.String("addr", "", "mmserve address (host:port) — required")
		model    = flag.String("model", "TSO", "model sent with every request (SC, TSO, NaiveTSO, PSO, Relaxed, Relaxed+spec)")
		tests    = flag.String("tests", defaultCorpus, "comma-separated corpus, hottest first (zipf rank order)")
		skew     = flag.Float64("skew", 1.4, "zipf skew s (> 1; higher concentrates traffic on the head of the corpus)")
		conc     = flag.Int("concurrency", 8, "concurrent client goroutines")
		requests = flag.Int("requests", 400, "total requests to issue")
		seed     = flag.Int64("seed", 1, "zipf PRNG seed (per-worker streams derive from it)")
		maxBeh   = flag.Int("max-behaviors", 0, "per-request MaxBehaviors (0 = server default; part of the cache key)")
		verify   = flag.Int("verify", 0, "after the replay, verify this many distinct corpus entries bit-identical to a local sequential enumeration")
		minHit   = flag.Float64("min-hit-rate", 0, "gate: fail unless hits/(hits+misses) ≥ this")
		minSpeed = flag.Float64("min-hit-speedup", 0, "gate: fail unless the server-side miss p95 / hit p95 (from /status) ≥ this")
		maxDB    = flag.Float64("max-db-ratio", 0, "gate: fail unless journal db_calls / logical_writes ≤ this")
		maxMiss  = flag.Int("max-misses", -1, "gate: fail if misses exceed this (-1 = off)")
		synth    = flag.Int("synthetic", 0, "replace -tests with this many generated wide-SB programs (distinct fingerprints, expensive misses)")
		synthThr = flag.Int("synthetic-threads", 4, "threads per synthetic program (cost grows combinatorially)")
		synthLds = flag.Int("synthetic-loads", 2, "loads per thread in synthetic programs")
	)
	var tel cli.Telemetry
	engine := cli.RegisterEngineFlags("the -verify oracle")
	tel.RegisterFlags()
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "usage: mmload -addr HOST:PORT [-tests A,B,C] [-skew S] [-requests N] ...")
		os.Exit(2)
	}
	if err := tel.Init("mmload"); err != nil {
		fmt.Fprintf(os.Stderr, "mmload: %v\n", err)
		os.Exit(1)
	}
	defer tel.Close()
	if *skew <= 1 {
		fmt.Fprintf(os.Stderr, "mmload: -skew must be > 1 (got %v)\n", *skew)
		os.Exit(2)
	}
	var oracleOpts core.Options
	fail := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmload: %v\n", err)
			os.Exit(2)
		}
	}
	fail(engine.Apply(&oracleOpts))

	m, ok := litmus.ModelByName(*model)
	if !ok {
		fmt.Fprintf(os.Stderr, "mmload: unknown model %q\n", *model)
		os.Exit(2)
	}
	var corpus []corpusEntry
	if *synth > 0 {
		for i := 0; i < *synth; i++ {
			corpus = append(corpus, corpusEntry{
				name: fmt.Sprintf("SBW%dx%d-%d", *synthThr, *synthLds, i),
				src:  genWideSB(*synthThr, *synthLds, i+1),
			})
		}
	} else {
		for _, name := range strings.Split(*tests, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := litmus.ByName(name); !ok {
				fmt.Fprintf(os.Stderr, "mmload: unknown test %q\n", name)
				os.Exit(2)
			}
			corpus = append(corpus, corpusEntry{name: name, test: name})
		}
	}
	if len(corpus) == 0 {
		fmt.Fprintln(os.Stderr, "mmload: empty corpus")
		os.Exit(2)
	}

	base := "http://" + *addr
	// The default transport keeps only two idle connections per host;
	// at higher concurrency that means constant TCP re-dials, which
	// would bill connection setup to the cache-hit latency we're here
	// to measure.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = *conc + 2
	client := &http.Client{Timeout: 120 * time.Second, Transport: tr}
	post := func(e corpusEntry) (string, []byte, int, error) {
		reqBody, _ := json.Marshal(serve.EnumRequest{Test: e.test, Litmus: e.src, Model: *model, MaxBehaviors: *maxBeh})
		resp, err := client.Post(base+serve.PathEnumerate, "application/json", bytes.NewReader(reqBody))
		if err != nil {
			return "", nil, 0, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", nil, resp.StatusCode, err
		}
		return resp.Header.Get("X-Cache"), body, resp.StatusCode, nil
	}

	// The replay: conc goroutines, each with its own zipf stream over
	// the corpus ranks, issuing its share of the total.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		samples  []sample
		rejected int
		errs     int
	)
	started := time.Now()
	per := *requests / *conc
	extra := *requests % *conc
	for w := 0; w < *conc; w++ {
		n := per
		if w < extra {
			n++
		}
		wg.Add(1)
		go func(worker, n int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(*seed + int64(worker)*7919))
			zipf := rand.NewZipf(r, *skew, 1, uint64(len(corpus)-1))
			var local []sample
			localRej, localErr := 0, 0
			for i := 0; i < n; i++ {
				entry := corpus[zipf.Uint64()]
				t0 := time.Now()
				class, _, status, err := post(entry)
				ns := time.Since(t0).Nanoseconds()
				switch {
				case err != nil:
					localErr++
				case status == http.StatusTooManyRequests:
					localRej++
					time.Sleep(100 * time.Millisecond)
				case status != http.StatusOK:
					localErr++
				default:
					local = append(local, sample{class: class, ns: ns})
				}
			}
			mu.Lock()
			samples = append(samples, local...)
			rejected += localRej
			errs += localErr
			mu.Unlock()
		}(w, n)
	}
	wg.Wait()
	elapsed := time.Since(started)

	rep := report{Requests: *requests, Rejected: rejected, Errors: errs,
		DurationMs: elapsed.Milliseconds(), Latency: map[string]latency{}}
	byClass := map[string][]int64{}
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], s.ns)
	}
	rep.Hits = len(byClass["hit"])
	rep.Misses = len(byClass["miss"])
	rep.Coalesced = len(byClass["coalesced"])
	if rep.Hits+rep.Misses > 0 {
		rep.HitRate = float64(rep.Hits) / float64(rep.Hits+rep.Misses)
	}
	if sec := elapsed.Seconds(); sec > 0 {
		rep.Throughput = float64(len(samples)) / sec
	}
	for class, ns := range byClass {
		rep.Latency[class] = quantiles(ns)
	}
	if h, m := rep.Latency["hit"], rep.Latency["miss"]; h.P95 > 0 && m.P95 > 0 {
		rep.HitSpeedup = m.P95 / h.P95
	}

	// Pull the server's ledger for the journal batching ratio and the
	// handler-side latency split.
	var status serve.Status
	if resp, err := client.Get(base + serve.PathStatus); err == nil {
		json.NewDecoder(resp.Body).Decode(&status) //nolint:errcheck
		resp.Body.Close()
		if status.Journal != nil && status.Journal.LogicalWrites > 0 {
			rep.DBRatio = float64(status.Journal.DBCalls) / float64(status.Journal.LogicalWrites)
		}
		rep.ServerHitP95Ms = status.HitLatency.P95Ns / 1e6
		rep.ServerMissP95Ms = status.MissLatency.P95Ns / 1e6
		if status.HitLatency.P95Ns > 0 && status.MissLatency.P95Ns > 0 {
			rep.ServerSpeedup = status.MissLatency.P95Ns / status.HitLatency.P95Ns
		}
	}

	// Bit-identity verification: the first -verify distinct corpus
	// entries are fetched once more and compared byte-for-byte against
	// a local sequential-oracle enumeration of the same key.
	if *verify > 0 {
		n := *verify
		if n > len(corpus) {
			n = len(corpus)
		}
		for _, entry := range corpus[:n] {
			var t *litmus.Test
			if entry.test != "" {
				t, _ = litmus.ByName(entry.test)
			} else {
				var perr error
				if t, perr = litmus.Parse(entry.src); perr != nil {
					fmt.Fprintf(os.Stderr, "mmload: verify %s: %v\n", entry.name, perr)
					os.Exit(1)
				}
			}
			opts := oracleOpts
			opts.Speculative = m.Speculative
			opts.MaxBehaviors = *maxBeh
			if opts.MaxBehaviors <= 0 || opts.MaxBehaviors > 1<<20 {
				opts.MaxBehaviors = 1 << 20 // the server's default cap
			}
			fp := core.ProgramFingerprint(m.Name, t.Build(), opts)
			want, _, err := serve.ComputeBody(context.Background(), t, m, opts, 1, fp)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mmload: verify %s: oracle: %v\n", entry.name, err)
				os.Exit(1)
			}
			_, got, statusCode, err := post(entry)
			if err != nil || statusCode != http.StatusOK {
				fmt.Fprintf(os.Stderr, "mmload: verify %s: fetch failed (status %d, err %v)\n", entry.name, statusCode, err)
				os.Exit(1)
			}
			if !bytes.Equal(got, want) {
				fmt.Fprintf(os.Stderr, "mmload: verify %s: server response differs from local enumeration\nserver: %s\nlocal:  %s\n",
					entry.name, got, want)
				os.Exit(1)
			}
			rep.Verified++
		}
	}

	// Gates.
	if *minHit > 0 && rep.HitRate < *minHit {
		rep.GateFailure = append(rep.GateFailure,
			fmt.Sprintf("hit rate %.3f < %.3f", rep.HitRate, *minHit))
	}
	if *minSpeed > 0 && rep.ServerSpeedup < *minSpeed {
		rep.GateFailure = append(rep.GateFailure,
			fmt.Sprintf("hit speedup %.1fx < %.1fx (server hit p95 %.4fms, miss p95 %.4fms)",
				rep.ServerSpeedup, *minSpeed, rep.ServerHitP95Ms, rep.ServerMissP95Ms))
	}
	if *maxDB > 0 && rep.DBRatio > *maxDB {
		rep.GateFailure = append(rep.GateFailure,
			fmt.Sprintf("journal db ratio %.4f > %.4f", rep.DBRatio, *maxDB))
	}
	if *maxMiss >= 0 && rep.Misses > *maxMiss {
		rep.GateFailure = append(rep.GateFailure,
			fmt.Sprintf("misses %d > %d", rep.Misses, *maxMiss))
	}
	if errs > 0 {
		rep.GateFailure = append(rep.GateFailure, fmt.Sprintf("%d request errors", errs))
	}

	out, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(out))
	if len(rep.GateFailure) > 0 {
		for _, g := range rep.GateFailure {
			fmt.Fprintf(os.Stderr, "mmload: GATE FAILED: %s\n", g)
		}
		os.Exit(1)
	}
}
