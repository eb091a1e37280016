package core_test

import (
	"context"
	"sort"
	"testing"

	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/order"
	"storeatomicity/internal/randprog"
)

// The non-negotiable pruning invariant: the engine, and the engine with
// each search-pruning layer (incremental closure, prefix-state dedup,
// symmetry reduction) alone, must yield a final behavior set
// bit-identical to the reference engine's (core.EnumerateReference),
// sequential and parallel alike. These tests are in an external package
// so they can drive the engines through the litmus corpus (which imports
// core).

// pruneConfigs enumerates the configurations under test: each pruning
// layer alone, with the other two in their reference form, bisects a
// divergence to one layer; "all" is the engine every caller runs.
func pruneConfigs() map[string]core.Options {
	return map[string]core.Options{
		"closure": core.NoPrefixPrune(core.NoSymmetry(core.Options{})),
		"prefix":  core.ReferenceClosure(core.NoSymmetry(core.Options{})),
		"all":     {},
	}
}

// reference runs a litmus test on the reference engine, with
// speculation forced by the model like litmus.RunContext.
func reference(ctx context.Context, lt *litmus.Test, m litmus.Model) (*core.Result, error) {
	return core.EnumerateReference(ctx, lt.Build(), m.Policy, core.Options{Speculative: m.Speculative})
}

// behaviorKeys returns the sorted multiset of canonical execution
// identities, so both missing and duplicated behaviors are caught.
func behaviorKeys(r *core.Result) []string {
	keys := make([]string, 0, len(r.Executions))
	for _, e := range r.Executions {
		keys = append(keys, e.SourceKey())
	}
	sort.Strings(keys)
	return keys
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPruningBitIdenticalLitmus checks the invariant over the whole
// litmus corpus under every model configuration, at one and four
// workers.
func TestPruningBitIdenticalLitmus(t *testing.T) {
	ctx := context.Background()
	for _, lt := range litmus.Registry() {
		if testing.Short() && (lt.Name == "SB3W" || lt.Name == "IRIW" || lt.Name == "IRIWFenced") {
			continue
		}
		for _, m := range litmus.Models() {
			want, err := reference(ctx, lt, m)
			if err != nil {
				t.Fatalf("%s/%s reference: %v", lt.Name, m.Name, err)
			}
			wantKeys := behaviorKeys(want)
			for cname, opts := range pruneConfigs() {
				for _, workers := range []int{1, 4} {
					got, err := litmus.RunContext(ctx, lt, m, opts, workers)
					if err != nil {
						t.Fatalf("%s/%s %s w%d: %v", lt.Name, m.Name, cname, workers, err)
					}
					if gotKeys := behaviorKeys(got); !sameKeys(gotKeys, wantKeys) {
						t.Errorf("%s/%s: pruning %q at %d workers changed the behavior set: %d executions vs reference %d",
							lt.Name, m.Name, cname, workers, len(gotKeys), len(wantKeys))
					}
					if got.Stats.StatesExplored > want.Stats.StatesExplored {
						t.Errorf("%s/%s: pruning %q at %d workers explored MORE states (%d) than the reference (%d)",
							lt.Name, m.Name, cname, workers, got.Stats.StatesExplored, want.Stats.StatesExplored)
					}
				}
			}
		}
	}
}

// TestPruningBitIdenticalRand extends the invariant to the randprog
// corpus: ≥500 seeds in full mode (~60 under -short), the engine against
// the reference engine, at widths 1, 2 and 4.
func TestPruningBitIdenticalRand(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 60
	}
	models := []order.Policy{order.TSO(), order.Relaxed()}
	ctx := context.Background()
	for seed := int64(0); seed < int64(seeds); seed++ {
		threads, ops := 2, 4
		if seed%4 == 1 {
			threads, ops = 3, 3
		}
		p := randprog.Generate(randprog.Config{Seed: seed, Threads: threads, Ops: ops})
		for _, pol := range models {
			want, err := core.EnumerateReference(ctx, p, pol, core.Options{})
			if err != nil {
				t.Fatalf("seed %d %s reference: %v", seed, pol.Name(), err)
			}
			wantKeys := behaviorKeys(want)
			got, err := core.Enumerate(ctx, p, pol, core.Options{})
			if err != nil {
				t.Fatalf("seed %d %s engine: %v", seed, pol.Name(), err)
			}
			if gotKeys := behaviorKeys(got); !sameKeys(gotKeys, wantKeys) {
				t.Fatalf("seed %d %s: engine behavior set diverges (%d vs %d executions)\nprogram:\n%s",
					seed, pol.Name(), len(gotKeys), len(wantKeys), p)
			}
			// Parallel spot checks on a rotating subset to bound runtime.
			if seed%5 != 0 {
				continue
			}
			for _, workers := range []int{2, 4} {
				gotPar, err := core.EnumerateParallel(ctx, p, pol, core.Options{}, workers)
				if err != nil {
					t.Fatalf("seed %d %s engine w%d: %v", seed, pol.Name(), workers, err)
				}
				if gotKeys := behaviorKeys(gotPar); !sameKeys(gotKeys, wantKeys) {
					t.Fatalf("seed %d %s: engine behavior set at %d workers diverges (%d vs %d executions)\nprogram:\n%s",
						seed, pol.Name(), workers, len(gotKeys), len(wantKeys), p)
				}
			}
		}
	}
}

// TestSymmetryActuallyPrunes pins the point of the pruning layers: on
// the rotation-symmetric SB3 family, the engine must explore at most
// half the reference engine's states while (per the tests above)
// emitting the identical behavior set.
func TestSymmetryActuallyPrunes(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"SB3", "SB3W"} {
		lt, ok := litmus.ByName(name)
		if !ok {
			t.Fatalf("litmus test %s not registered", name)
		}
		m, _ := litmus.ModelByName("Relaxed")
		base, err := reference(ctx, lt, m)
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		pruned, err := litmus.RunContext(ctx, lt, m, core.Options{}, 1)
		if err != nil {
			t.Fatalf("%s pruned: %v", name, err)
		}
		if pruned.Stats.SymmetryPruned == 0 {
			t.Errorf("%s: symmetry reduction never fired (stats %+v)", name, pruned.Stats)
		}
		if pruned.Stats.StatesExplored*2 > base.Stats.StatesExplored {
			t.Errorf("%s: expected ≥2x state reduction, got %d pruned vs %d reference",
				name, pruned.Stats.StatesExplored, base.Stats.StatesExplored)
		}
		if !sameKeys(behaviorKeys(pruned), behaviorKeys(base)) {
			t.Errorf("%s: pruned behavior set diverges from the reference", name)
		}
	}
}
