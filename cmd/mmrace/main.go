// Command mmrace applies the paper's well-synchronization discipline
// (conclusions: "exactly one eligible store" for every data load) to a
// litmus test from the corpus.
//
// Usage:
//
//	mmrace [-model NAME] [-sync a,b,...] [-timeout 30s] TEST
//
// -sync lists synchronization addresses by their conventional letters
// (x y z w u v); loads of those addresses are exempt from the check.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"storeatomicity/internal/cli"
	"storeatomicity/internal/core"
	"storeatomicity/internal/discipline"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/program"
)

var addrByName = map[string]program.Addr{
	"x": program.X, "y": program.Y, "z": program.Z,
	"w": program.W, "u": program.U, "v": program.V,
}

func main() {
	var (
		model   = flag.String("model", "Relaxed", "model configuration")
		syncL   = flag.String("sync", "", "comma-separated synchronization addresses (x,y,...)")
		timeout = flag.Duration("timeout", 0, "wall-clock budget for the enumeration")
	)
	var tel cli.Telemetry
	engine := cli.RegisterEngineFlags("")
	tel.RegisterFlags()
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mmrace [-model NAME] [-sync x,y] TEST")
		os.Exit(2)
	}
	tc, ok := litmus.ByName(flag.Arg(0))
	if !ok {
		fmt.Fprintf(os.Stderr, "mmrace: unknown test %q\n", flag.Arg(0))
		os.Exit(2)
	}
	m, ok := litmus.ModelByName(*model)
	if !ok {
		fmt.Fprintf(os.Stderr, "mmrace: unknown model %q\n", *model)
		os.Exit(2)
	}
	syncAddrs := map[program.Addr]bool{}
	if *syncL != "" {
		for _, name := range strings.Split(*syncL, ",") {
			a, ok := addrByName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "mmrace: unknown address %q\n", name)
				os.Exit(2)
			}
			syncAddrs[a] = true
		}
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()
	if err := tel.Init("mmrace"); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	defer tel.Close()
	opts := core.Options{Speculative: m.Speculative, Metrics: tel.Enum(), Tracer: tel.Tracer(), Journal: tel.Journal()}
	if err := engine.Apply(&opts); err != nil {
		fmt.Fprintf(os.Stderr, "mmrace: %v\n", err)
		os.Exit(2)
	}
	rep, err := discipline.Check(ctx, tc.Build(), m.Policy, syncAddrs, opts)
	if err != nil {
		tel.Close()
		if cli.ReportIncomplete(os.Stderr, "mmrace", err) {
			// The discipline verdict needs the full behavior set; a
			// partial enumeration proves nothing either way.
			fmt.Fprintln(os.Stderr, "mmrace: no verdict on a partial behavior set")
		} else {
			fmt.Fprintf(os.Stderr, "mmrace: %v\n", err)
		}
		os.Exit(1)
	}
	fmt.Printf("%s under %s (%d behaviors):\n", tc.Name, m.Name, len(rep.Result.Executions))
	if rep.WellSynchronized {
		fmt.Println("  WELL SYNCHRONIZED: every data load has exactly one eligible store.")
		return
	}
	fmt.Println("  RACY:")
	for _, v := range rep.Violations {
		fmt.Printf("    %s\n", v)
	}
	tel.Close()
	os.Exit(1)
}
