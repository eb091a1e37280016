// Package cli holds the plumbing shared by the ten command-line tools
// that import it (every cmd/ binary except mmobs): signal-aware contexts
// with optional deadlines, rendering of partial-result reports, the
// engine and telemetry flag registrations, and the -faults flag grammar.
// It keeps every tool's behavior uniform — Ctrl-C or a blown -timeout
// prints what was found so far instead of discarding it.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"storeatomicity/internal/coherence"
	"storeatomicity/internal/core"
)

// Context returns a context canceled by SIGINT/SIGTERM and, when timeout
// is positive, by a deadline. The returned stop function releases the
// signal handler (defer it); a second signal kills the process via the
// default handler, so a wedged run can still be interrupted.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() { cancel(); stop() }
}

// ReportIncomplete recognizes a graceful-stop error and renders its
// report to w, returning true if the caller holds partial results worth
// printing. Any other error (including nil) returns false untouched.
func ReportIncomplete(w io.Writer, tool string, err error) bool {
	var ie *core.IncompleteError
	if !errors.As(err, &ie) {
		return false
	}
	rep := ie.Report
	fmt.Fprintf(w, "%s: enumeration incomplete (%s): %v\n", tool, rep.Reason, rep.Cause)
	fmt.Fprintf(w, "%s: partial results below — %d states explored, %d pending on the frontier\n",
		tool, rep.StatesExplored, rep.StatesPending)
	var pe *core.PanicError
	if errors.As(err, &pe) {
		fmt.Fprintf(w, "%s: worker panic repro — replay path %v\nprogram:\n%s\n",
			tool, pe.Path, pe.Program)
	}
	for _, reason := range rep.SpillDegraded {
		fmt.Fprintf(w, "%s: dedup spill degraded (%s) — the seen-set fell back to memory-only; the behavior set is still exact\n",
			tool, reason)
	}
	if len(rep.Metrics) > 0 {
		fmt.Fprintf(w, "%s: final metrics snapshot:\n%s", tool, rep.Metrics.Format())
	}
	return true
}

// PruneAll names the engine's pruning layers in the grammar of the
// removed -prune flag. The engine always runs all of them; PruneAll and
// ApplyPrune remain only for callers that still name them.
const PruneAll = "closure,prefix,symmetry"

// ApplyPrune accepts a spec in the removed -prune grammar only if it
// names the one configuration the engine runs ("", "all" or PruneAll)
// and refuses any other: the engine can no longer turn pruning layers
// off. It sets nothing in opts.
func ApplyPrune(opts *core.Options, spec string) error {
	switch strings.TrimSpace(spec) {
	case "", "all", PruneAll:
		return nil
	}
	return fmt.Errorf("prune %q: the -prune flag was removed; every run uses all pruning layers (%s)", spec, PruneAll)
}

// ParseBytes parses the byte-budget flag grammar shared by -dedup-mem
// and -cache-mem: a positive byte count with optional k/m/g (KiB/MiB/
// GiB) suffix, or "", "0", "off" for zero (the caller's "unbounded").
// flagName only labels the error.
func ParseBytes(flagName, spec string) (int64, error) {
	orig := spec
	spec = strings.TrimSpace(strings.ToLower(spec))
	switch spec {
	case "", "0", "off":
		return 0, nil
	}
	mult := int64(1)
	switch spec[len(spec)-1] {
	case 'k':
		mult, spec = 1<<10, spec[:len(spec)-1]
	case 'm':
		mult, spec = 1<<20, spec[:len(spec)-1]
	case 'g':
		mult, spec = 1<<30, spec[:len(spec)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(spec), 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad %s %q (want a positive byte count with optional k/m/g suffix, or off)", flagName, orig)
	}
	return n * mult, nil
}

// ApplyDedupMem parses the -dedup-mem flag into opts: a byte budget for
// the engines' seen-sets, in the ParseBytes grammar. "", "0", and "off"
// keep the classic unbounded in-memory dedup; a positive budget
// switches to the tiered spill-to-disk store, which produces a
// bit-identical behavior set while keeping resident dedup memory
// bounded — the knob for searches bigger than RAM.
func ApplyDedupMem(opts *core.Options, spec string) error {
	n, err := ParseBytes("-dedup-mem", spec)
	if err != nil {
		return err
	}
	opts.DedupMemBudget = n
	return nil
}

// ApplyFrontierResident parses the -frontier-resident flag into opts: a
// byte budget for fully materialized states on the engines' work
// queues. "auto" (the default) sizes the budget from -max-nodes so
// ordinary runs never demote; "", "0", and "off" keep every queued
// state resident (the classic engine); a positive budget (ParseBytes
// grammar) demotes queued states beyond it to delta-compressed replay
// paths and re-materializes them by replay on pop. Every setting yields
// a bit-identical behavior set — the knob bounds resident frontier
// memory for searches deeper than RAM, and composes with -dedup-mem
// (which bounds the seen-set the same way).
func ApplyFrontierResident(opts *core.Options, spec string) error {
	if strings.EqualFold(strings.TrimSpace(spec), "auto") {
		opts.FrontierResidentBytes = -1
		return nil
	}
	n, err := ParseBytes("-frontier-resident", spec)
	if err != nil {
		return err
	}
	opts.FrontierResidentBytes = n
	return nil
}

// EngineFlags holds the engine's two memory budgets in their flag
// grammars: -dedup-mem (ApplyDedupMem) and -frontier-resident
// (ApplyFrontierResident). RegisterEngineFlags is the one registration
// every tool uses; dist.JobSpec carries the same strings to workers and
// applies them through Apply.
type EngineFlags struct {
	DedupMem, FrontierResident string
}

// RegisterEngineFlags registers the engine flags on the default flag set
// with their canonical names and defaults. scope, when non-empty, names
// what the flags configure in the help text (for example "the -verify
// oracle").
func RegisterEngineFlags(scope string) *EngineFlags {
	f := &EngineFlags{}
	of := ""
	if scope != "" {
		of = " for " + scope
	}
	flag.StringVar(&f.DedupMem, "dedup-mem", "off", "seen-set memory budget"+of+" (bytes; k/m/g suffix) — overflow spills to disk; off = unbounded in-memory")
	flag.StringVar(&f.FrontierResident, "frontier-resident", "auto", "resident frontier budget"+of+" (bytes; k/m/g suffix) — overflow demotes to compressed replay paths; auto sizes from the node ceiling; off = keep everything resident")
	return f
}

// Apply parses every flag into opts, stopping at the first bad spec.
func (f *EngineFlags) Apply(opts *core.Options) error {
	if err := ApplyDedupMem(opts, f.DedupMem); err != nil {
		return err
	}
	return ApplyFrontierResident(opts, f.FrontierResident)
}

// ParseFaults parses the -faults flag grammar into a coherence fault
// config. The spec is comma-separated key=value pairs:
//
//	delay=P    probability a bus transaction stalls (0..1)
//	reorder=P  probability a transaction defers behind another one
//	retry=P    probability an ownership transfer is NACKed
//	stall=N    max stall cycles per delay (default 3)
//	retries=N  max NACKs per transfer (default 4)
//	seed=N     injector PRNG seed (defaults to the seed argument)
//
// The bare word "on" (or "default") enables a moderate preset. An empty
// spec returns (nil, nil): fault injection disabled.
func ParseFaults(spec string, seed int64) (*coherence.FaultConfig, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	cfg := &coherence.FaultConfig{Seed: seed}
	if spec == "on" || spec == "default" {
		cfg.DelayProb, cfg.ReorderProb, cfg.RetryProb = 0.2, 0.1, 0.2
		return cfg, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -faults element %q (want key=value)", kv)
		}
		key, val := parts[0], parts[1]
		switch key {
		case "delay", "reorder", "retry":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("bad -faults probability %q (want 0..1)", kv)
			}
			switch key {
			case "delay":
				cfg.DelayProb = p
			case "reorder":
				cfg.ReorderProb = p
			case "retry":
				cfg.RetryProb = p
			}
		case "stall", "retries", "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad -faults count %q", kv)
			}
			switch key {
			case "stall":
				cfg.MaxStall = int(n)
			case "retries":
				cfg.MaxRetries = int(n)
			case "seed":
				cfg.Seed = n
			}
		default:
			return nil, fmt.Errorf("unknown -faults key %q", key)
		}
	}
	if !cfg.Active() {
		return nil, fmt.Errorf("-faults %q enables no fault class (set delay, reorder, or retry)", spec)
	}
	return cfg, nil
}
