// Command mmverify checks a recorded execution against a memory model by
// closing its ordering graph under the Store Atomicity rules — a TSOtool-
// style verifier (Section 7 of the paper) with a selectable rule subset.
//
// Usage:
//
//	mmverify [-model NAME] [-rules ab|abc] [-timeout 30s] FILE.json...
//	mmverify -demo
//	mmverify -example          print an example record and exit
//
// Exit status 1 when any record is rejected.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"storeatomicity/internal/cli"
	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
	"storeatomicity/internal/verify"
)

func policyByName(name string) order.Policy {
	switch name {
	case "SC":
		return order.SC()
	case "TSO":
		return order.TSO()
	case "NaiveTSO":
		return order.NaiveTSO()
	case "PSO":
		return order.PSO()
	case "Relaxed":
		return order.Relaxed()
	}
	return nil
}

func main() {
	var (
		model   = flag.String("model", "TSO", "model to check against (SC, TSO, NaiveTSO, PSO, Relaxed)")
		rules   = flag.String("rules", "abc", "Store Atomicity rule subset: ab (TSOtool-equivalent) or abc (complete)")
		demo    = flag.Bool("demo", false, "check built-in demonstration records")
		example = flag.Bool("example", false, "print an example record JSON and exit")
		timeout = flag.Duration("timeout", 0, "wall-clock budget for the -demo enumeration")
	)
	var tel cli.Telemetry
	engine := cli.RegisterEngineFlags("the -demo enumeration")
	tel.RegisterFlags()
	flag.Parse()

	pol := policyByName(*model)
	if pol == nil {
		fmt.Fprintf(os.Stderr, "mmverify: unknown model %q\n", *model)
		os.Exit(2)
	}
	var rs verify.Rules
	switch *rules {
	case "ab":
		rs = verify.RulesAB
	case "abc":
		rs = verify.RulesABC
	default:
		fmt.Fprintf(os.Stderr, "mmverify: unknown rules %q\n", *rules)
		os.Exit(2)
	}

	if *example {
		rec := sbRecord()
		data, err := verify.EncodeRecord(rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmverify:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		return
	}

	if err := tel.Init("mmverify"); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	defer tel.Close()

	if *demo {
		var demoOpts core.Options
		if err := engine.Apply(&demoOpts); err != nil {
			fmt.Fprintf(os.Stderr, "mmverify: %v\n", err)
			os.Exit(2)
		}
		runDemo(pol, rs, *timeout, demoOpts, &tel)
		return
	}

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: mmverify [-model NAME] [-rules ab|abc] FILE.json...  (or -demo, -example)")
		os.Exit(2)
	}
	bad := 0
	for _, f := range flag.Args() {
		data, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmverify: %v\n", err)
			os.Exit(1)
		}
		rec, err := verify.ParseRecord(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmverify: %s: %v\n", f, err)
			os.Exit(1)
		}
		rep, err := verify.Check(rec, pol, rs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmverify: %s: %v\n", f, err)
			os.Exit(1)
		}
		if rep.Accepted {
			fmt.Printf("%s: ACCEPTED under %s (rules %s, %d derived edges)\n", f, *model, *rules, rep.DerivedEdges)
		} else {
			fmt.Printf("%s: REJECTED under %s (rules %s): %s\n", f, *model, *rules, rep.Reason)
			bad++
		}
	}
	if bad > 0 {
		tel.Close()
		os.Exit(1)
	}
}

// sbRecord is the store-buffering outcome, legal under TSO, illegal under
// SC.
func sbRecord() *verify.Record {
	return &verify.Record{
		Init: map[program.Addr]program.Value{program.X: 0, program.Y: 0},
		Threads: [][]verify.Op{
			{
				{Kind: program.KindStore, Addr: program.X, Value: 1, Label: "Sx"},
				{Kind: program.KindLoad, Addr: program.Y, Value: 0, Label: "Ly", SourceLabel: "init:1"},
			},
			{
				{Kind: program.KindStore, Addr: program.Y, Value: 1, Label: "Sy"},
				{Kind: program.KindLoad, Addr: program.X, Value: 0, Label: "Lx", SourceLabel: "init:0"},
			},
		},
	}
}

// runDemo checks characteristic records under every model with both rule
// subsets, exercising enumerated executions from the corpus as accepted
// inputs and the store-buffering record as the SC rejection.
func runDemo(pol order.Policy, rs verify.Rules, timeout time.Duration, opts core.Options, tel *cli.Telemetry) {
	fmt.Printf("demo: checking under %s with rules %v\n\n", pol.Name(), rs)

	rec := sbRecord()
	rep, err := verify.Check(rec, pol, rs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmverify:", err)
		os.Exit(1)
	}
	fmt.Printf("store-buffering outcome: accepted=%v %s\n", rep.Accepted, rep.Reason)

	// Every enumerated Figure10 execution converted to a record should
	// round-trip through the checker.
	tc, _ := litmus.ByName("Figure10")
	m, _ := litmus.ModelByName("TSO")
	var ctx context.Context
	ctx, stop := cli.Context(timeout)
	defer stop()
	opts.Metrics, opts.Tracer, opts.Journal = tel.Enum(), tel.Tracer(), tel.Journal()
	res, err := litmus.RunContext(ctx, tc, m, opts, 1)
	if err != nil {
		tel.Close()
		if cli.ReportIncomplete(os.Stderr, "mmverify", err) {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "mmverify:", err)
		os.Exit(1)
	}
	accepted := 0
	for _, e := range res.Executions {
		rep, err := verify.Check(verify.RecordFromExecution(e), order.TSO(), verify.RulesABC)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmverify:", err)
			os.Exit(1)
		}
		if rep.Accepted {
			accepted++
		}
	}
	fmt.Printf("Figure10 under TSO: %d/%d enumerated executions accepted by the complete checker\n",
		accepted, len(res.Executions))
}
