// Command mmlitmus runs the whole litmus corpus against the stock model
// configurations and prints the comparison matrix — the reproduction's
// equivalent of the paper's worked-example walkthrough, machine-checked.
//
// Usage:
//
//	mmlitmus            run corpus, print behavior counts and expectation results
//	mmlitmus -timeout D stop mid-matrix when the budget expires (partial rows kept)
//	mmlitmus -table     print the reordering tables (Figure 1 and friends)
//	mmlitmus -outcomes  additionally list distinct value outcomes per cell
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"storeatomicity/internal/cli"
	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/order"
)

func main() {
	var (
		table    = flag.Bool("table", false, "print the reordering axiom tables and exit")
		outcomes = flag.Bool("outcomes", false, "list distinct outcomes per test/model")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget for the whole matrix")
	)
	var tel cli.Telemetry
	engine := cli.RegisterEngineFlags("")
	tel.RegisterFlags()
	flag.Parse()

	if *table {
		for _, t := range []*order.Table{order.Relaxed(), order.SC(), order.TSO(), order.NaiveTSO(), order.PSO()} {
			fmt.Println(t.String())
		}
		fmt.Println("rows: first (earlier) instruction; columns: second.")
		fmt.Println("'-' freely reorders (data dependencies always hold); 'never' keeps")
		fmt.Println("program order; 'x=y' keeps it for matching addresses; 'bypass' is")
		fmt.Println("TSO's same-thread store→load rule (Section 6).")
		return
	}

	var engineOpts core.Options
	if err := engine.Apply(&engineOpts); err != nil {
		fmt.Fprintf(os.Stderr, "mmlitmus: %v\n", err)
		os.Exit(2)
	}
	ctx, stop := cli.Context(*timeout)
	defer stop()
	if err := tel.Init("mmlitmus"); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	defer tel.Close()
	models := litmus.Models()
	fmt.Printf("%-14s", "test")
	for _, m := range models {
		fmt.Printf("%14s", m.Name)
	}
	fmt.Println("   expectations")

	failures := 0
	for _, tc := range litmus.Registry() {
		fmt.Printf("%-14s", tc.Name)
		var bad []string
		var cells []string
		for _, m := range models {
			opts := engineOpts
			opts.Metrics, opts.Tracer, opts.Journal = tel.Enum(), tel.Tracer(), tel.Journal()
			res, err := litmus.RunContext(ctx, tc, m, opts, 1)
			if err != nil {
				tel.Close()
				if cli.ReportIncomplete(os.Stderr, "mmlitmus", err) {
					fmt.Fprintf(os.Stderr, "mmlitmus: matrix incomplete at %s/%s\n", tc.Name, m.Name)
					os.Exit(1)
				}
				fmt.Fprintf(os.Stderr, "\nmmlitmus: %s under %s: %v\n", tc.Name, m.Name, err)
				os.Exit(1)
			}
			fmt.Printf("%14d", len(res.OutcomeSet()))
			bad = append(bad, litmus.CheckResult(tc, m.Name, res)...)
			if *outcomes {
				var os_ []string
				for o := range res.OutcomeSet() {
					os_ = append(os_, o)
				}
				sort.Strings(os_)
				cells = append(cells, fmt.Sprintf("  %s/%s:", tc.Name, m.Name))
				for _, o := range os_ {
					cells = append(cells, "    "+o)
				}
			}
		}
		if len(bad) == 0 {
			fmt.Println("   ok")
		} else {
			fmt.Println("   FAIL")
			failures += len(bad)
			for _, b := range bad {
				fmt.Println("    ", b)
			}
		}
		for _, c := range cells {
			fmt.Println(c)
		}
	}
	fmt.Println("\ncells: number of distinct value outcomes the model admits.")
	if failures > 0 {
		fmt.Printf("%d expectation failures\n", failures)
		tel.Close()
		os.Exit(1)
	}
	fmt.Println("all expectations hold.")
}
