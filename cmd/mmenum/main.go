// Command mmenum enumerates every behavior of a litmus test under a
// memory model, using the procedure of Section 4 of "Memory Model =
// Instruction Reordering + Store Atomicity" (ISCA 2006).
//
// Usage:
//
//	mmenum -list
//	mmenum [-model NAME] [-workers N] [-sources] [-graph] [-serialize] TEST
//
// Examples:
//
//	mmenum -model SC SB
//	mmenum -model Relaxed -sources Figure5
//	mmenum -model TSO -serialize Figure10
//	mmenum -model Relaxed -timeout 5s -checkpoint run.ckpt IRIW
//	mmenum -model Relaxed -checkpoint run.ckpt -resume IRIW
//
// Interrupting a run (Ctrl-C) or exceeding -timeout prints the behaviors
// found so far and, with -checkpoint, writes a resumable snapshot.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"storeatomicity/internal/cli"
	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/program"
	"storeatomicity/internal/serial"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list registered litmus tests and exit")
		model     = flag.String("model", "Relaxed", "model configuration (SC, TSO, NaiveTSO, PSO, Relaxed, Relaxed+spec)")
		sources   = flag.Bool("sources", false, "print load→store source assignments, not just values")
		graph     = flag.Bool("graph", false, "dump each execution's edge list")
		dot       = flag.Bool("dot", false, "emit each execution as a Graphviz digraph")
		file      = flag.String("file", "", "load the test from a .litmus file instead of the registry")
		serialize = flag.Bool("serialize", false, "print a witness serialization per execution (or report non-serializability)")
		why       = flag.String("why", "", "explain an outcome (\"L5=3,L6=1\"): check every justifying source assignment")
		workers   = flag.Int("workers", 1, "enumerate with N parallel workers (0 = one per CPU)")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget; on expiry (or Ctrl-C) partial results are printed")
		ckptPath  = flag.String("checkpoint", "", "write a resumable checkpoint here periodically and on interrupt")
		ckptEvery = flag.Duration("checkpoint-every", 5*time.Second, "timed checkpoint interval (with -checkpoint)")
		resume    = flag.Bool("resume", false, "seed the run from the -checkpoint file instead of starting fresh")
	)
	var tel cli.Telemetry
	engine := cli.RegisterEngineFlags("")
	tel.RegisterFlags()
	tel.RegisterProgressFlag()
	flag.Parse()

	if *list {
		for _, t := range litmus.Registry() {
			fmt.Printf("%-14s %s\n", t.Name, t.Doc)
		}
		return
	}
	var tc *litmus.Test
	switch {
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmenum: %v\n", err)
			os.Exit(1)
		}
		tc, err = litmus.Parse(string(data))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmenum: %s: %v\n", *file, err)
			os.Exit(1)
		}
	case flag.NArg() == 1:
		var ok bool
		tc, ok = litmus.ByName(flag.Arg(0))
		if !ok {
			fmt.Fprintf(os.Stderr, "mmenum: unknown test %q (try -list)\n", flag.Arg(0))
			os.Exit(2)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: mmenum [-model NAME] [-sources] [-graph] [-dot] [-serialize] TEST\n       mmenum -file test.litmus\n       mmenum -list")
		os.Exit(2)
	}
	m, ok := litmus.ModelByName(*model)
	if !ok {
		fmt.Fprintf(os.Stderr, "mmenum: unknown model %q\n", *model)
		os.Exit(2)
	}

	prog := tc.Build()
	fmt.Printf("%s under %s\n\n%s\n", tc.Name, m.Name, prog)

	if *why != "" {
		o := litmus.Outcome{}
		for _, kv := range strings.Split(*why, ",") {
			parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
			if len(parts) != 2 {
				fmt.Fprintf(os.Stderr, "mmenum: bad constraint %q\n", kv)
				os.Exit(2)
			}
			v, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mmenum: bad value in %q\n", kv)
				os.Exit(2)
			}
			o[parts[0]] = program.Value(v)
		}
		ex, err := litmus.Explain(tc, m, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmenum: %v\n", err)
			os.Exit(1)
		}
		forbidden, reasons := litmus.Forbidden(ex)
		if forbidden {
			fmt.Printf("outcome %s is FORBIDDEN under %s; every justification fails:\n", o, m.Name)
			for _, r := range reasons {
				fmt.Println("  -", r)
			}
		} else {
			fmt.Printf("outcome %s is ALLOWED under %s; witnessing assignments:\n", o, m.Name)
			for _, e := range ex {
				if e.Accepted {
					fmt.Printf("  %v\n", e.Assignment)
				}
			}
		}
		return
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()
	if err := tel.Init("mmenum"); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	defer tel.Close()
	opts := core.Options{Speculative: m.Speculative, Metrics: tel.Enum(), Tracer: tel.Tracer(), Journal: tel.Journal()}
	if err := engine.Apply(&opts); err != nil {
		fmt.Fprintf(os.Stderr, "mmenum: %v\n", err)
		os.Exit(2)
	}
	if *ckptPath != "" {
		opts.Checkpoint = &core.CheckpointConfig{
			Path:  *ckptPath,
			Every: *ckptEvery,
			OnError: func(err error) {
				fmt.Fprintf(os.Stderr, "mmenum: checkpoint: %v\n", err)
			},
		}
	}
	run := func() (*core.Result, error) {
		if *resume {
			if *ckptPath == "" {
				fmt.Fprintln(os.Stderr, "mmenum: -resume needs -checkpoint")
				os.Exit(2)
			}
			c, err := core.LoadCheckpoint(*ckptPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mmenum: %v\n", err)
				os.Exit(1)
			}
			return core.Resume(ctx, prog, m.Policy, opts, c, *workers)
		}
		return litmus.RunContext(ctx, tc, m, opts, *workers)
	}
	var deadline time.Time
	if *timeout > 0 {
		deadline = time.Now().Add(*timeout)
	}
	tel.StartProgress(0, deadline)
	res, err := run()
	tel.StopProgress()
	incomplete := false
	if err != nil {
		if !cli.ReportIncomplete(os.Stderr, "mmenum", err) {
			fmt.Fprintf(os.Stderr, "mmenum: %v\n", err)
			tel.Close()
			os.Exit(1)
		}
		incomplete = true
		if *ckptPath != "" {
			if cerr := res.Checkpoint(prog, opts).Save(*ckptPath); cerr != nil {
				fmt.Fprintf(os.Stderr, "mmenum: %v\n", cerr)
			} else {
				fmt.Fprintf(os.Stderr, "mmenum: checkpoint written to %s (continue with -resume)\n", *ckptPath)
			}
		}
	}

	fmt.Printf("%d distinct executions (%d states explored, %d forks, %d duplicates discarded, %d prefix-pruned, %d symmetry-pruned, %d rollbacks)\n\n",
		len(res.Executions), res.Stats.StatesExplored, res.Stats.Forks,
		res.Stats.DuplicatesDiscarded, res.Stats.PrefixPruned, res.Stats.SymmetryPruned,
		res.Stats.Rollbacks)

	byKey := map[string]int{}
	for i, e := range res.Executions {
		k := e.Key()
		if *sources {
			k = e.SourceKey()
		}
		if _, seen := byKey[k]; !seen {
			byKey[k] = i
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := res.Executions[byKey[k]]
		fmt.Printf("  %s\n", k)
		if *serialize {
			if w, err := serial.Witness(e); err != nil {
				fmt.Printf("    NOT serializable (non-atomic TSO bypass)\n")
			} else {
				fmt.Printf("    witness:")
				for _, id := range w {
					fmt.Printf(" %s", e.Nodes[id].Label)
				}
				fmt.Println()
			}
		}
		if *graph {
			for _, ed := range e.Graph.Edges() {
				fmt.Printf("    %s -> %s (%s)\n", e.Nodes[ed.From].Label, e.Nodes[ed.To].Label, ed.Kind)
			}
		}
		if *dot {
			fmt.Println(e.DOT())
		}
	}

	if incomplete {
		// A partial set cannot be judged against "must be allowed"
		// expectations; the non-zero status says the run was cut short.
		fmt.Println("\n(partial behavior set — expectations not checked)")
		tel.Close()
		os.Exit(1)
	}
	if bad := litmus.CheckResult(tc, m.Name, res); len(bad) > 0 {
		fmt.Println("\nEXPECTATION FAILURES:")
		for _, b := range bad {
			fmt.Println(" ", b)
		}
		tel.Close()
		os.Exit(1)
	}
}
