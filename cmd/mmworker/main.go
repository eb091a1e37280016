// Command mmworker is one worker of a fault-tolerant distributed
// enumeration: it registers with an mmcoord coordinator, pulls shard
// leases, enumerates each shard's subtree with the same engine as
// mmenum, and posts results idempotently. Every coordinator call runs
// under capped exponential backoff with jitter, so a briefly
// unreachable coordinator is retried rather than fatal; a worker that
// dies falls silent, and after 3 heartbeats the coordinator declares it
// lost and hands its shard to a peer (restarting it under the same -id
// hands the shard back at once).
//
// Usage:
//
//	mmworker -coord URL [-id NAME] [-max-retries N] [-retry-base DUR]
//	         [-workers N] [-shard-delay DUR]
//
// Example:
//
//	mmworker -coord http://127.0.0.1:7600 -id w1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"storeatomicity/internal/cli"
	"storeatomicity/internal/dist"
)

func main() {
	var (
		coord      = flag.String("coord", "", "coordinator base URL (e.g. http://127.0.0.1:7600); required")
		id         = flag.String("id", "", "worker name in leases and logs (default worker-<pid>)")
		maxRetries = flag.Int("max-retries", 5, "retries per coordinator call before giving up")
		retryBase  = flag.Duration("retry-base", 50*time.Millisecond, "first retry backoff delay (doubles per attempt, capped, jittered)")
		workers    = flag.Int("workers", 1, "engine parallelism within each shard (0 = one per CPU)")
		shardDelay = flag.Duration("shard-delay", 0, "sleep this long before each shard (chaos-testing knob)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget; expiry (or Ctrl-C) abandons the current shard to lease reassignment")
	)
	var tel cli.Telemetry
	tel.RegisterFlags()
	flag.Parse()

	if *coord == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: mmworker -coord URL [-id NAME] [-max-retries N] [-retry-base DUR] [-workers N] [-shard-delay DUR]")
		os.Exit(2)
	}
	if *id == "" {
		*id = fmt.Sprintf("worker-%d", os.Getpid())
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()
	// Two workers sharing a -run-dir must not clobber each other's
	// journal/trace files: name them by worker ID, not tool name.
	tel.Instance = *id
	if err := tel.Init("mmworker"); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	defer tel.Close()

	w := dist.NewWorker(dist.WorkerConfig{
		Coord:         *coord,
		ID:            *id,
		MaxRetries:    *maxRetries,
		RetryBase:     *retryBase,
		EngineWorkers: *workers,
		ShardDelay:    *shardDelay,
		Seed:          int64(os.Getpid()),
		Metrics:       tel.Dist(),
		Enum:          tel.Enum(),
		Journal:       tel.Journal(),
		Tracer:        tel.Tracer(),
		Snapshot:      tel.Snapshot,
	})
	err := w.Run(ctx)
	switch {
	case err == nil:
		fmt.Printf("mmworker: %s done — coordinator reports every shard accounted for\n", *id)
	case context.Cause(ctx) != nil && ctx.Err() != nil:
		// Interrupted: the in-flight shard was abandoned to
		// reassignment, which is the designed crash behavior, but exit
		// non-zero so scripts can tell.
		fmt.Fprintf(os.Stderr, "mmworker: %s interrupted: %v\n", *id, err)
		tel.Close()
		os.Exit(1)
	default:
		fmt.Fprintf(os.Stderr, "mmworker: %s: %v\n", *id, err)
		tel.Close()
		os.Exit(1)
	}
}
