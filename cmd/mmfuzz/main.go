// Command mmfuzz runs the differential fuzzer from the command line:
// generate random programs, enumerate them under the model chain, and
// cross-check the reference engine (core.EnumerateReference), the
// serialization search, the post-hoc checker, and the operational
// machines against the enumerator.
//
// Usage:
//
//	mmfuzz [-n 100] [-threads 2] [-ops 4] [-seed 0] [-timeout 60s] [-faults SPEC] [-v]
//
// Exit status 1 on the first discrepancy (with the offending program
// printed for reproduction). A checker panic is recovered and reported
// the same way — program and seed printed — instead of crashing the
// fuzzer and losing the repro. Ctrl-C or -timeout stops early with a
// partial summary and exit status 0: a truncated fuzz run that found no
// discrepancy is a pass.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"storeatomicity/internal/cli"
	"storeatomicity/internal/coherence"
	"storeatomicity/internal/core"
	"storeatomicity/internal/machine"
	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
	"storeatomicity/internal/randprog"
	"storeatomicity/internal/serial"
	"storeatomicity/internal/verify"
)

func main() {
	var (
		n        = flag.Int("n", 100, "number of random programs")
		threads  = flag.Int("threads", 2, "threads per program")
		ops      = flag.Int("ops", 4, "instructions per thread")
		seed0    = flag.Int64("seed", 0, "starting seed")
		workers  = flag.Int("workers", 0, "also cross-check EnumerateParallel with N workers (0 = skip)")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget; stop early with a partial summary")
		faultsFl = flag.String("faults", "", "inject coherence bus faults into the machine runs (\"on\" or delay=P,reorder=P,retry=P,...)")
		verbose  = flag.Bool("v", false, "print per-program statistics")
	)
	var tel cli.Telemetry
	engine := cli.RegisterEngineFlags("the engine under test")
	tel.RegisterFlags()
	tel.RegisterProgressFlag()
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()
	faultsBase, err := cli.ParseFaults(*faultsFl, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmfuzz: %v\n", err)
		os.Exit(2)
	}
	var engineOpts core.Options
	if err := engine.Apply(&engineOpts); err != nil {
		fmt.Fprintf(os.Stderr, "mmfuzz: %v\n", err)
		os.Exit(2)
	}
	if err := tel.Init("mmfuzz"); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	defer tel.Close()
	var deadline time.Time
	if *timeout > 0 {
		deadline = time.Now().Add(*timeout)
	}
	tel.StartProgress(0, deadline)

	chain := []order.Policy{order.SC(), order.TSO(), order.PSO(), order.Relaxed()}
	totalBehaviors := 0
	done := 0
	for i := 0; i < *n; i++ {
		seed := *seed0 + int64(i)
		p := randprog.Generate(randprog.Config{Seed: seed, Threads: *threads, Ops: *ops})
		if !fuzzOne(ctx, p, seed, chain, *workers, faultsBase, engineOpts, &tel, *verbose, &totalBehaviors) {
			tel.StopProgress()
			fmt.Printf("mmfuzz: stopped early (%v) after %d of %d programs; no discrepancy in %d behaviors\n",
				ctx.Err(), done, *n, totalBehaviors)
			return
		}
		done++
	}
	tel.StopProgress()
	fmt.Printf("mmfuzz: %d programs × %d models OK (%d total behaviors cross-checked)\n",
		*n, len(chain), totalBehaviors)
}

// fuzzOne cross-checks one program and reports whether fuzzing should
// continue (false = the context expired; discrepancies never return). A
// panic anywhere in the checking pipeline is recovered into a bug report
// carrying the program and seed.
func fuzzOne(ctx context.Context, p *program.Program, seed int64, chain []order.Policy,
	workers int, faultsBase *coherence.FaultConfig, engineOpts core.Options, tel *cli.Telemetry, verbose bool, totalBehaviors *int) bool {
	defer func() {
		if r := recover(); r != nil {
			fail(p, seed, "checker panic: %v\n%s", r, debug.Stack())
		}
	}()
	opts := engineOpts
	opts.MaxBehaviors = 1 << 22
	opts.Metrics, opts.Tracer, opts.Journal = tel.Enum(), tel.Tracer(), tel.Journal()
	var prev map[string]bool
	for _, pol := range chain {
		res, err := core.Enumerate(ctx, p, pol, opts)
		if err != nil {
			if ctx.Err() != nil {
				return false
			}
			fail(p, seed, "%s: %v", pol.Name(), err)
		}
		// Engine soundness: the engine's behavior set must be
		// bit-identical to the reference engine's (no pruning layers,
		// deep-copy forks, in-memory seen-set and frontier). A mismatch
		// is a pruning or aliasing bug; shrink the program before
		// reporting it.
		ref, err := core.EnumerateReference(ctx, p, pol, referenceOpts)
		if err != nil {
			if ctx.Err() != nil {
				return false
			}
			fail(p, seed, "%s reference: %v", pol.Name(), err)
		}
		if diff := behaviorDiff(res, ref); diff != "" {
			min := minimizeMismatch(ctx, p, pol, opts)
			fail(min, seed, "%s: engine diverged from the reference engine (%s; %d prefix-pruned, %d symmetry-pruned, %d rows copied); minimized repro below",
				pol.Name(), diff, res.Stats.PrefixPruned, res.Stats.SymmetryPruned, res.Stats.CowRowsCopied)
		}
		if workers > 1 {
			par, err := core.EnumerateParallel(ctx, p, pol, opts, workers)
			if err != nil {
				if ctx.Err() != nil {
					return false
				}
				fail(p, seed, "%s parallel: %v", pol.Name(), err)
			}
			if len(par.Executions) != len(res.Executions) {
				fail(p, seed, "%s: parallel found %d behaviors, sequential %d",
					pol.Name(), len(par.Executions), len(res.Executions))
			}
			seq := map[string]bool{}
			for _, e := range res.Executions {
				seq[e.SourceKey()] = true
			}
			for _, e := range par.Executions {
				if !seq[e.SourceKey()] {
					fail(p, seed, "%s: parallel behavior %q not in sequential set", pol.Name(), e.SourceKey())
				}
			}
		}
		cur := map[string]bool{}
		for _, e := range res.Executions {
			cur[e.SourceKey()] = true
			if len(e.Bypasses) == 0 {
				if w, err := serial.Witness(e); err != nil {
					fail(p, seed, "%s: execution %s not serializable", pol.Name(), e.SourceKey())
				} else if cerr := serial.Check(e, w); cerr != nil {
					fail(p, seed, "%s: witness check: %v", pol.Name(), cerr)
				}
			}
			rep, err := verify.Check(verify.RecordFromExecution(e), pol, verify.RulesABC)
			if err != nil {
				fail(p, seed, "checker error: %v", err)
			}
			if !rep.Accepted {
				fail(p, seed, "%s: checker rejects enumerated %s: %s", pol.Name(), e.SourceKey(), rep.Reason)
			}
		}
		for k := range prev {
			if !cur[k] {
				fail(p, seed, "behavior %q lost strengthening to %s", k, pol.Name())
			}
		}
		prev = cur
		*totalBehaviors += len(cur)
		if verbose {
			fmt.Printf("seed %4d %-8s %3d behaviors (%d states, %d dup, %d prefix-pruned, %d sym-pruned)\n",
				seed, pol.Name(), len(cur), res.Stats.StatesExplored, res.Stats.DuplicatesDiscarded,
				res.Stats.PrefixPruned, res.Stats.SymmetryPruned)
		}
	}
	// Machines contained in their models, with optional fault injection.
	relaxed := prev
	for ms := int64(0); ms < 10; ms++ {
		cfg := machine.Config{Policy: order.Relaxed(), Seed: ms, Telemetry: tel.Machine()}
		if faultsBase != nil {
			fc := *faultsBase
			fc.Seed = seed*16 + ms
			cfg.Faults = &fc
		}
		tr, err := machine.Run(p, cfg)
		if err != nil {
			fail(p, seed, "machine: %v", err)
		}
		if !relaxed[tr.SourceKey()] {
			fail(p, seed, "machine escaped Relaxed with %q", tr.SourceKey())
		}
	}
	return ctx.Err() == nil
}

// referenceOpts run the reference engine in memory under the fuzz budget.
var referenceOpts = core.Options{MaxBehaviors: 1 << 22}

// behaviorDiff compares the engine's and the reference engine's
// behavior sets and describes the first divergence ("" when identical).
func behaviorDiff(got, ref *core.Result) string {
	gs := map[string]bool{}
	for _, e := range got.Executions {
		gs[e.SourceKey()] = true
	}
	for _, e := range ref.Executions {
		if !gs[e.SourceKey()] {
			return fmt.Sprintf("engine missing behavior %q", e.SourceKey())
		}
	}
	if len(got.Executions) != len(ref.Executions) {
		return fmt.Sprintf("engine has %d behaviors, reference %d", len(got.Executions), len(ref.Executions))
	}
	return ""
}

// refMismatch reports whether the engine and the reference engine
// disagree on p. Errors count as "no mismatch" so the minimizer never
// trades a soundness repro for a crashing candidate.
func refMismatch(ctx context.Context, p *program.Program, pol order.Policy, opts core.Options) bool {
	got, err := core.Enumerate(ctx, p, pol, opts)
	if err != nil {
		return false
	}
	ref, err := core.EnumerateReference(ctx, p, pol, referenceOpts)
	if err != nil {
		return false
	}
	return behaviorDiff(got, ref) != ""
}

// minimizeMismatch greedily deletes instructions (and then empty
// threads) while the engine-vs-reference divergence persists, so the
// repro attached to the failure is as small as the greedy pass can make
// it. Programs with branches are returned untouched — deleting an
// instruction would shift branch targets.
func minimizeMismatch(ctx context.Context, p *program.Program, pol order.Policy, opts core.Options) *program.Program {
	for _, t := range p.Threads {
		for _, in := range t.Instrs {
			if in.Kind == program.KindBranch {
				return p
			}
		}
	}
	cur := cloneProgram(p)
	for changed := true; changed; {
		changed = false
		for ti := range cur.Threads {
			for ii := 0; ii < len(cur.Threads[ti].Instrs); ii++ {
				cand := cloneProgram(cur)
				instrs := cand.Threads[ti].Instrs
				cand.Threads[ti].Instrs = append(instrs[:ii:ii], instrs[ii+1:]...)
				if refMismatch(ctx, cand, pol, opts) {
					cur = cand
					changed = true
					ii--
				}
			}
		}
	}
	// Drop now-empty threads entirely.
	kept := cur.Threads[:0]
	for _, t := range cur.Threads {
		if len(t.Instrs) > 0 {
			kept = append(kept, t)
		}
	}
	cur.Threads = kept
	return cur
}

func cloneProgram(p *program.Program) *program.Program {
	c := &program.Program{Threads: make([]program.Thread, len(p.Threads))}
	for i, t := range p.Threads {
		c.Threads[i] = program.Thread{Name: t.Name, Instrs: append([]program.Instr(nil), t.Instrs...)}
	}
	if p.Init != nil {
		c.Init = make(map[program.Addr]program.Value, len(p.Init))
		for a, v := range p.Init {
			c.Init[a] = v
		}
	}
	return c
}

func fail(p *program.Program, seed int64, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mmfuzz: seed %d: %s\nprogram:\n%s\n", seed, fmt.Sprintf(format, args...), p)
	os.Exit(1)
}
