// Command mmcoord is the coordinator of a fault-tolerant distributed
// enumeration: it partitions a litmus test's behavior tree into
// replayable-path shards, serves them to mmworker processes over
// HTTP/JSON, and merges the workers' results into a behavior set
// bit-identical to a single-process run. A worker owns its shard exactly
// while it is live: workers may crash, stall, or drop off the network
// mid-run, and one silent past 3 heartbeats (or restarted under its own
// -id) has its shard returned to the queue; duplicate submissions are
// absorbed idempotently, and a fleet silent past -deadline degrades the
// run to a structured partial report instead of hanging.
//
// Usage:
//
//	mmcoord [-listen ADDR] [-model NAME] [-shards N] [-heartbeat DUR]
//	        [-deadline DUR] [-selfcheck] TEST
//
// Example (three terminals):
//
//	mmcoord -listen 127.0.0.1:7600 -model Relaxed SB3W
//	mmworker -coord http://127.0.0.1:7600 -id w1
//	mmworker -coord http://127.0.0.1:7600 -id w2
//
// With -selfcheck the coordinator also runs the enumeration
// single-process and exits non-zero unless the merged distributed set
// is bit-identical — the acceptance gate the chaos CI job runs while
// killing a worker mid-run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"storeatomicity/internal/cli"
	"storeatomicity/internal/core"
	"storeatomicity/internal/dist"
	"storeatomicity/internal/litmus"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list registered litmus tests and exit")
		listen    = flag.String("listen", "127.0.0.1:0", "coordinator listen address (host:port; port 0 picks a free one)")
		model     = flag.String("model", "Relaxed", "model configuration (SC, TSO, NaiveTSO, PSO, Relaxed, Relaxed+spec)")
		shards    = flag.Int("shards", 16, "partition the frontier into about this many shards")
		heartbeat = flag.Duration("heartbeat", 10*time.Second/3, "worker heartbeat interval; a worker silent past 3 heartbeats is lost and its shards return to the queue")
		deadline  = flag.Duration("deadline", time.Minute, "degrade to a partial result after this long with pending shards and no worker contact (<0 waits forever)")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget; on expiry (or Ctrl-C) the partial merge is printed")
		selfcheck = flag.Bool("selfcheck", false, "also run single-process and fail unless the merged set is bit-identical")
		sources   = flag.Bool("sources", false, "print load→store source assignments, not just values")
	)
	var tel cli.Telemetry
	engine := cli.RegisterEngineFlags("each worker")
	tel.RegisterFlags()
	flag.Parse()

	if *list {
		for _, t := range litmus.Registry() {
			fmt.Printf("%-14s %s\n", t.Name, t.Doc)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mmcoord [-listen ADDR] [-model NAME] [-shards N] [-heartbeat DUR] [-deadline DUR] [-selfcheck] TEST\n       mmcoord -list")
		os.Exit(2)
	}
	if *heartbeat <= 0 {
		fmt.Fprintf(os.Stderr, "mmcoord: -heartbeat %v: must be positive\n", *heartbeat)
		os.Exit(2)
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()
	if err := tel.Init("mmcoord"); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	defer tel.Close()

	job := dist.JobSpec{
		Test:             flag.Arg(0),
		Model:            *model,
		DedupMem:         engine.DedupMem,
		FrontierResident: engine.FrontierResident,
	}
	coord, err := dist.NewCoordinator(ctx, dist.Config{
		Listen:         *listen,
		Job:            job,
		Heartbeat:      *heartbeat,
		WorkerDeadline: *deadline,
		Shards:         *shards,
		Metrics:        tel.Dist(),
		Journal:        tel.Journal(),
		Tracer:         tel.Tracer(),
		Fleet:          tel.Fleet(),
		Registry:       tel.Registry(),
		RunID:          tel.RunID,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmcoord: %v\n", err)
		os.Exit(1)
	}
	if err := coord.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "mmcoord: %v\n", err)
		os.Exit(1)
	}
	defer coord.Close()
	st := coord.Status()
	fmt.Printf("mmcoord: serving %s under %s on http://%s (%d shards, heartbeat %v, worker lost after %v silent)\n",
		job.Test, job.Model, coord.Addr(), st.Shards, heartbeat.Round(time.Millisecond), (3 * *heartbeat).Round(time.Millisecond))

	res, err := coord.Wait(ctx)
	incomplete := false
	if err != nil {
		if !cli.ReportIncomplete(os.Stderr, "mmcoord", err) {
			fmt.Fprintf(os.Stderr, "mmcoord: %v\n", err)
			tel.Close()
			os.Exit(1)
		}
		incomplete = true
	}

	fmt.Printf("%d distinct executions (%d states explored across the fleet)\n\n",
		len(res.Executions), res.Stats.StatesExplored)
	byKey := map[string]bool{}
	var keys []string
	for _, e := range res.Executions {
		k := e.Key()
		if *sources {
			k = e.SourceKey()
		}
		if !byKey[k] {
			byKey[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s\n", k)
	}

	if incomplete {
		fmt.Println("\n(partial behavior set — selfcheck and expectations not run)")
		tel.Close()
		os.Exit(1)
	}
	if *selfcheck {
		tst, m, opts, err := job.Resolve()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmcoord: %v\n", err)
			tel.Close()
			os.Exit(1)
		}
		// The merge already finished; selfcheck runs even if the original
		// ctx just expired.
		base, err := core.Enumerate(context.WithoutCancel(ctx), tst.Build(), m.Policy, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmcoord: selfcheck: %v\n", err)
			tel.Close()
			os.Exit(1)
		}
		if got, want := dist.Canonical(res), dist.Canonical(base); got != want {
			fmt.Fprintf(os.Stderr, "mmcoord: SELFCHECK FAILED — distributed set differs from sequential engine\ndistributed:\n%s\nsequential:\n%s\n", got, want)
			tel.Close()
			os.Exit(1)
		}
		fmt.Printf("\nselfcheck: merged set bit-identical to the sequential engine (%d behaviors)\n", len(base.Executions))
	}
}
