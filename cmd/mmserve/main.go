// Command mmserve runs the enumeration service: a long-lived HTTP/JSON
// daemon that enumerates litmus-test behavior sets on demand and serves
// repeat traffic from a fingerprint-keyed memo cache with write-behind
// NDJSON persistence (see internal/serve).
//
// Usage:
//
//	mmserve [-addr HOST:PORT] [-cache-mem BYTES] [-store FILE]
//	        [-max-inflight N] [-max-behaviors N] [-timeout DUR]
//	        [-workers N] [-dedup-mem BYTES] [-frontier-resident BYTES]
//
// Endpoints:
//
//	POST /enumerate  {"test":"SB","model":"TSO"} or {"litmus":SRC,...}
//	                 → canonical behavior-set JSON; X-Cache: hit|miss|
//	                 coalesced; 429 + Retry-After under overload
//	GET  /status     run ledger: cache/journal counters, exact hit and
//	                 miss latency quantiles, admission state
//	GET  /metrics    the same counters in Prometheus text format
//	GET  /healthz    liveness
//
// Examples:
//
//	mmserve -addr 127.0.0.1:7090 -store cache.ndjson -cache-mem 64m
//	curl -d '{"test":"IRIW","model":"Relaxed"}' http://127.0.0.1:7090/enumerate
//
// Restarting with the same -store replays the journal (verifying every
// record's checksum and fingerprint) so the cache starts warm.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"storeatomicity/internal/cli"
	"storeatomicity/internal/core"
	"storeatomicity/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7090", "listen address for the service endpoints")
		cacheMem = flag.String("cache-mem", "64m", "memo-cache byte budget (k/m/g suffix; off = unbounded) — LRU eviction keeps resident bodies under it")
		store    = flag.String("store", "", "persist the cache to this NDJSON journal (write-behind, batched); replayed on restart to warm the cache")
		flushOps = flag.Int("flush-ops", serve.DefaultFlushOps, "journal write-behind batch size (records per file write)")
		flushInt = flag.Duration("flush-interval", serve.DefaultFlushInterval, "journal write-behind flush interval for partial batches")
		inflight = flag.Int("max-inflight", 4, "max concurrent enumerations; excess misses get 429 + Retry-After")
		maxBeh   = flag.Int("max-behaviors", 1<<20, "server-side cap on per-request MaxBehaviors")
		timeout  = flag.Duration("timeout", 30*time.Second, "server-side cap on per-request enumeration wall clock")
		workers  = flag.Int("workers", 1, "engine width per enumeration (1 = sequential; keeps budget-stopped responses deterministic and cacheable)")
	)
	var tel cli.Telemetry
	engine := cli.RegisterEngineFlags("each enumeration")
	tel.RegisterFlags()
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: mmserve [-addr HOST:PORT] [-cache-mem BYTES] [-store FILE] ...")
		os.Exit(2)
	}
	if err := tel.Init("mmserve"); err != nil {
		fmt.Fprintf(os.Stderr, "mmserve: %v\n", err)
		os.Exit(1)
	}
	defer tel.Close()

	var opts core.Options
	fail := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmserve: %v\n", err)
			os.Exit(2)
		}
	}
	fail(engine.Apply(&opts))
	opts.Metrics = tel.Enum()
	cacheBytes, err := cli.ParseBytes("-cache-mem", *cacheMem)
	fail(err)

	srv, err := serve.NewServer(serve.Config{
		Listen:          *addr,
		CacheBytes:      cacheBytes,
		StorePath:       *store,
		FlushOps:        *flushOps,
		FlushInterval:   *flushInt,
		MaxInflight:     *inflight,
		MaxBehaviorsCap: *maxBeh,
		TimeoutCap:      *timeout,
		EngineWorkers:   *workers,
		Opts:            opts,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmserve: %v\n", err)
		os.Exit(1)
	}
	if err := srv.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "mmserve: %v\n", err)
		os.Exit(1)
	}
	st := srv.StatusSnapshot()
	warm := ""
	if st.Journal != nil {
		warm = fmt.Sprintf(" (journal: %d entries replayed, %d dropped)", st.Journal.Replayed, st.Journal.Dropped)
	}
	fmt.Printf("mmserve: listening on http://%s%s\n", srv.Addr(), warm)

	// Run until SIGINT/SIGTERM, then drain and flush the journal.
	ctx, stop := cli.Context(0)
	defer stop()
	<-ctx.Done()
	fmt.Println("mmserve: shutting down")
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "mmserve: %v\n", err)
		os.Exit(1)
	}
}
