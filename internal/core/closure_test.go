package core

import (
	"context"
	"testing"

	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
	"storeatomicity/internal/randprog"
)

// TestIncrementalClosureMatchesRecompute is the worklist closure's
// property test. Every completed behavior of a corpus program is
// replayed twice in lockstep — once with the change-log worklist closure
// (the default), once with the reference engine's from-scratch fixpoint
// (disableIncrementalClosure) — and after every step the two states must
// agree on the full reachability relation and on every node's
// resolution. Two further oracles run on the incremental state at each
// step: graph.RecomputeClosure must reproduce its transitive closure
// bit-for-bit (the propagate/change-log bookkeeping kept desc/anc
// honest), and re-running the full rules-a/b/c scan must be a no-op (the
// worklist really reached the fixpoint, skipping only clean work).
func TestIncrementalClosureMatchesRecompute(t *testing.T) {
	type cfg struct {
		name string
		pol  order.Policy
		spec bool
	}
	cfgs := []cfg{
		{"SC", order.SC(), false},
		{"TSO", order.TSO(), false},
		{"Relaxed", order.Relaxed(), false},
		{"Relaxed+spec", order.Relaxed(), true},
	}
	seeds := 25
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		threads, ops := 2, 4
		if seed%3 == 0 {
			threads, ops = 3, 3
		}
		p := randprog.Generate(randprog.Config{Seed: seed, Threads: threads, Ops: ops})
		for _, c := range cfgs {
			opts := Options{Speculative: c.spec}
			res, err := Enumerate(context.Background(), p, c.pol, opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.name, err)
			}
			execs := res.Executions
			if len(execs) > 40 {
				execs = execs[:40]
			}
			for _, e := range execs {
				replayCompare(t, p, c.pol, opts, e.Path, seed, c.name)
			}
		}
	}
}

// replayCompare replays one resolution path in lockstep under both
// closure implementations, checking the oracles after every step.
func replayCompare(t *testing.T, p *program.Program, pol order.Policy, opts Options, path []PathStep, seed int64, model string) {
	t.Helper()
	incOpts := opts.withDefaults()
	fullOpts := opts
	fullOpts.disableIncrementalClosure = true
	fullOpts = fullOpts.withDefaults()
	inc := newState(p, pol, incOpts)
	full := newState(p, pol, fullOpts)
	if !inc.g.ChangeLogEnabled() || full.g.ChangeLogEnabled() {
		t.Fatalf("closure-mode wiring inverted: inc log %v, full log %v",
			inc.g.ChangeLogEnabled(), full.g.ChangeLogEnabled())
	}
	step := func(stage string) {
		t.Helper()
		if err := inc.runToQuiescence(); err != nil {
			t.Fatalf("seed %d %s %s: incremental: %v", seed, model, stage, err)
		}
		if err := full.runToQuiescence(); err != nil {
			t.Fatalf("seed %d %s %s: full: %v", seed, model, stage, err)
		}
		compareClosureStates(t, inc, full, seed, model, stage)
	}
	step("root")
	for i, st := range path {
		for _, s := range []*state{inc, full} {
			if err := s.resolveLoad(st.Load, st.Store); err != nil {
				t.Fatalf("seed %d %s step %d: resolve: %v", seed, model, i, err)
			}
			if err := s.closure(); err != nil {
				t.Fatalf("seed %d %s step %d: closure: %v", seed, model, i, err)
			}
		}
		step("step")
	}
	if !inc.done() || !full.done() {
		t.Fatalf("seed %d %s: replayed completed path left unresolved nodes", seed, model)
	}
}

func compareClosureStates(t *testing.T, inc, full *state, seed int64, model, stage string) {
	t.Helper()
	if len(inc.nodes) != len(full.nodes) {
		t.Fatalf("seed %d %s %s: node counts diverge: %d vs %d", seed, model, stage, len(inc.nodes), len(full.nodes))
	}
	n := len(inc.nodes)
	for a := 0; a < n; a++ {
		ia, fa := &inc.nodes[a], &full.nodes[a]
		if ia.Resolved != fa.Resolved || ia.Source != fa.Source || ia.Val != fa.Val {
			t.Fatalf("seed %d %s %s: node %d diverges: inc{res %v src %d val %d} full{res %v src %d val %d}",
				seed, model, stage, a, ia.Resolved, ia.Source, ia.Val, fa.Resolved, fa.Source, fa.Val)
		}
		for b := 0; b < n; b++ {
			if inc.g.Before(a, b) != full.g.Before(a, b) {
				t.Fatalf("seed %d %s %s: Before(%d,%d): incremental %v, full %v",
					seed, model, stage, a, b, inc.g.Before(a, b), full.g.Before(a, b))
			}
		}
	}
	// Oracle 1: from-scratch transitive closure over the incremental
	// graph's direct edges reproduces its desc/anc sets.
	og := inc.g.Clone()
	og.RecomputeClosure()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if inc.g.Before(a, b) != og.Before(a, b) {
				t.Fatalf("seed %d %s %s: RecomputeClosure disagrees at (%d,%d)", seed, model, stage, a, b)
			}
		}
	}
	// Oracle 2: the worklist stopped at a true fixpoint — a full
	// rules-a/b/c rescan discovers nothing new.
	before := reachSnapshot(inc)
	if err := inc.closureFull(); err != nil {
		t.Fatalf("seed %d %s %s: closureFull rescan: %v", seed, model, stage, err)
	}
	after := reachSnapshot(inc)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if before[a][b] != after[a][b] {
				t.Fatalf("seed %d %s %s: incremental closure was not at fixpoint: rescan added order %d@%d",
					seed, model, stage, a, b)
			}
		}
	}
}

func reachSnapshot(s *state) [][]bool {
	n := len(s.nodes)
	m := make([][]bool, n)
	for a := 0; a < n; a++ {
		m[a] = make([]bool, n)
		for b := 0; b < n; b++ {
			m[a][b] = s.g.Before(a, b)
		}
	}
	return m
}
