// Command mmsim runs a litmus test many times on the operational
// multiprocessor simulator (out-of-order cores over an MSI coherence
// protocol) and checks the observed behaviors against the abstract model
// — the Section 4.2 "conservative approximation" experiment on demand.
//
// Usage:
//
//	mmsim [-model NAME] [-seeds N] [-window W] [-timeout 30s] [-faults SPEC] TEST
//
// -faults injects seeded coherence bus faults (delays, reordered
// transactions, NACKed ownership transfers) into the simulated machine;
// containment must still hold, since faults perturb only the schedule.
// Ctrl-C or -timeout stops the sweep early and reports the seeds run so
// far.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"storeatomicity/internal/cli"
	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/machine"
)

func main() {
	var (
		model   = flag.String("model", "Relaxed", "reordering policy for both machine and model")
		seeds   = flag.Int("seeds", 1000, "number of seeded runs")
		window  = flag.Int("window", 8, "issue window size per core (1 = in-order)")
		tso     = flag.Bool("tso", false, "use the in-order store-buffer machine (checks against the TSO model; -model/-window ignored)")
		timeout = flag.Duration("timeout", 0, "wall-clock budget; stop the sweep early with partial counts")
		faults  = flag.String("faults", "", "inject coherence bus faults (\"on\" or delay=P,reorder=P,retry=P,stall=N,retries=N,seed=N)")
	)
	var tel cli.Telemetry
	engine := cli.RegisterEngineFlags("the model enumeration")
	tel.RegisterFlags()
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mmsim [-model NAME | -tso] [-seeds N] [-window W] [-timeout D] [-faults SPEC] TEST")
		os.Exit(2)
	}
	if *tso {
		*model = "TSO"
	}
	tc, ok := litmus.ByName(flag.Arg(0))
	if !ok {
		fmt.Fprintf(os.Stderr, "mmsim: unknown test %q\n", flag.Arg(0))
		os.Exit(2)
	}
	m, ok := litmus.ModelByName(*model)
	if !ok || m.Speculative {
		fmt.Fprintf(os.Stderr, "mmsim: unknown or unsupported model %q\n", *model)
		os.Exit(2)
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()
	faultsBase, err := cli.ParseFaults(*faults, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmsim: %v\n", err)
		os.Exit(2)
	}
	if faultsBase != nil && *tso {
		fmt.Fprintln(os.Stderr, "mmsim: -faults applies to the out-of-order machine, not -tso")
		os.Exit(2)
	}

	if err := tel.Init("mmsim"); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	defer tel.Close()

	opts := core.Options{Metrics: tel.Enum(), Tracer: tel.Tracer(), Journal: tel.Journal()}
	if err := engine.Apply(&opts); err != nil {
		fmt.Fprintf(os.Stderr, "mmsim: %v\n", err)
		os.Exit(2)
	}
	res, err := litmus.RunContext(ctx, tc, m, opts, 1)
	if err != nil {
		tel.Close()
		if cli.ReportIncomplete(os.Stderr, "mmsim", err) {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mmsim: %v\n", err)
		os.Exit(1)
	}
	allowed := map[string]bool{}
	for _, e := range res.Executions {
		allowed[e.SourceKey()] = true
	}

	hist := map[string]int{}
	busOps, misses := 0, 0
	stalls := 0
	escaped := 0
	ran := 0
	for seed := 0; seed < *seeds; seed++ {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "mmsim: stopped early (%v) after %d of %d seeds\n", ctx.Err(), ran, *seeds)
			break
		}
		var tr *machine.Trace
		var err error
		if *tso {
			tr, err = machine.RunTSO(tc.Build(), machine.Config{Seed: int64(seed), Telemetry: tel.Machine()})
		} else {
			cfg := machine.Config{
				Policy: m.Policy, Seed: int64(seed), WindowSize: *window,
				Telemetry: tel.Machine(),
			}
			if faultsBase != nil {
				fc := *faultsBase
				if fc.Seed == 0 {
					fc.Seed = int64(seed) + 1
				}
				cfg.Faults = &fc
			}
			tr, err = machine.Run(tc.Build(), cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmsim: seed %d: %v\n", seed, err)
			tel.Close()
			os.Exit(1)
		}
		ran++
		key := tr.SourceKey()
		hist[key]++
		busOps += tr.Coherence.BusOps
		misses += tr.Coherence.ReadMisses
		stalls += tr.Stalls
		if !allowed[key] {
			escaped++
			fmt.Printf("ESCAPE seed %d: %s\n", seed, key)
		}
	}

	keys := make([]string, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s on %s machine (window %d), %d seeds:\n", tc.Name, m.Name, *window, ran)
	for _, k := range keys {
		mark := " "
		if !allowed[k] {
			mark = "!"
		}
		fmt.Printf(" %s %6d  %s\n", mark, hist[k], k)
	}
	fmt.Printf("\nmachine exhibited %d of the model's %d behaviors; %d bus ops, %d read misses.\n",
		len(hist), len(allowed), busOps, misses)
	if faultsBase != nil {
		fmt.Printf("fault injection: %d stall cycles across the sweep.\n", stalls)
	}
	if escaped > 0 {
		fmt.Printf("%d runs escaped the model — conservativity violated\n", escaped)
		tel.Close()
		os.Exit(1)
	}
	fmt.Println("containment holds: every machine behavior is a model behavior.")
}
