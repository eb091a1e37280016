package core

import (
	"context"
	"maps"
	"reflect"
	"testing"

	"storeatomicity/internal/order"
	"storeatomicity/internal/randprog"
)

// TestPrefixPruneStringBaseline cross-checks the hashed fork-time dedup
// keys against the full string signatures: with prefix pruning on (the
// default), the fingerprint-keyed and signature-keyed engines must agree
// on the behavior set and on every work counter — StatesExplored,
// PrefixPruned and SymmetryPruned among them — so a fingerprint
// collision that merged distinct prefixes would surface as a stats or
// behavior divergence. (The dedupcheck build tag additionally verifies
// every hash match against the signature at runtime.)
func TestPrefixPruneStringBaseline(t *testing.T) {
	ctx := context.Background()
	prunedAny := false
	for seed := int64(0); seed < 40; seed++ {
		p := randprog.Generate(randprog.Config{Seed: seed, Threads: 2, Ops: 4})
		for _, pol := range []order.Policy{order.TSO(), order.Relaxed()} {
			hashed, err := Enumerate(ctx, p, pol, Options{})
			if err != nil {
				t.Fatalf("seed %d %s hashed: %v", seed, pol.Name(), err)
			}
			str, err := Enumerate(ctx, p, pol, Options{dedupString: true})
			if err != nil {
				t.Fatalf("seed %d %s string: %v", seed, pol.Name(), err)
			}
			if !reflect.DeepEqual(hashed.Stats, str.Stats) {
				t.Fatalf("seed %d %s: stats diverge under prefix pruning: hashed %+v, string %+v",
					seed, pol.Name(), hashed.Stats, str.Stats)
			}
			// Width 2 has schedule-dependent counters, so only its
			// behavior set is compared.
			wide, err := EnumerateParallel(ctx, p, pol, Options{dedupString: true}, 2)
			if err != nil {
				t.Fatalf("seed %d %s string width 2: %v", seed, pol.Name(), err)
			}
			want := sourceKeySet(str)
			for name, res := range map[string]*Result{"hashed": hashed, "string width 2": wide} {
				got := sourceKeySet(res)
				if len(got) != len(want) {
					t.Fatalf("seed %d %s: %s behavior set diverges", seed, pol.Name(), name)
				}
				for k := range want {
					if !got[k] {
						t.Fatalf("seed %d %s: %s engine missing %q", seed, pol.Name(), name, k)
					}
				}
			}
			if hashed.Stats.PrefixPruned > 0 {
				prunedAny = true
			}
		}
	}
	if !prunedAny {
		t.Error("prefix pruning never fired across the corpus; the test exercises nothing")
	}
}

// TestPrefixPruneVsBackstopAccounting pins the one-dedup-point contract.
// The engine keys each child once, at fork time: every duplicate it drops
// is PrefixPruned or SymmetryPruned, and DuplicatesDiscarded stays 0. With
// fork-time keys off (disablePrefixPrune, as in the reference engine) the
// post-quiescence check is the only dedup: it discards on some seed,
// fork-time counters stay 0, symmetry is off (so a checkpoint records
// Symmetry: false), and the behavior set is unchanged.
func TestPrefixPruneVsBackstopAccounting(t *testing.T) {
	ctx := context.Background()
	backstopFired := false
	for seed := int64(0); seed < 30; seed++ {
		p := randprog.Generate(randprog.Config{Seed: seed, Threads: 2, Ops: 4})
		pol := order.Relaxed()
		pruned, err := Enumerate(ctx, p, pol, Options{})
		if err != nil {
			t.Fatalf("seed %d pruned: %v", seed, err)
		}
		plain, err := Enumerate(ctx, p, pol, Options{disablePrefixPrune: true})
		if err != nil {
			t.Fatalf("seed %d plain: %v", seed, err)
		}
		if pruned.Stats.DuplicatesDiscarded != 0 {
			t.Errorf("seed %d: the engine discarded %d states after quiescence; fork-time keys are its only dedup",
				seed, pruned.Stats.DuplicatesDiscarded)
		}
		if plain.Stats.DuplicatesDiscarded > 0 {
			backstopFired = true
		}
		if plain.Checkpoint(p, Options{disablePrefixPrune: true}).Symmetry {
			t.Errorf("seed %d: a run without fork-time keys checkpoints Symmetry: true", seed)
		}
		if pruned.Stats.PrefixPruned+pruned.Stats.SymmetryPruned == 0 && pruned.Stats.StatesExplored != plain.Stats.StatesExplored {
			t.Errorf("seed %d: no fork-time prunes yet explored counts differ (%d vs %d)",
				seed, pruned.Stats.StatesExplored, plain.Stats.StatesExplored)
		}
		if plain.Stats.PrefixPruned != 0 || plain.Stats.SymmetryPruned != 0 {
			t.Errorf("seed %d: disablePrefixPrune still recorded fork-time prunes: %+v", seed, plain.Stats)
		}
		if want, got := sourceKeySet(pruned), sourceKeySet(plain); !maps.Equal(got, want) {
			t.Errorf("seed %d: behavior sets diverge: %d without fork-time keys, %d with", seed, len(got), len(want))
		}
		// A fork dropped at fork time is a state never explored: the sum
		// of explored states and fork-time prunes can never be less than
		// the plain engine's explored count (it can exceed it — the
		// plain engine drops duplicates only after exploring them, and
		// counts those in StatesExplored).
		if pruned.Stats.StatesExplored+pruned.Stats.PrefixPruned+pruned.Stats.SymmetryPruned < plain.Stats.StatesExplored {
			t.Errorf("seed %d: accounting hole: explored %d + pruned %d+%d < plain explored %d",
				seed, pruned.Stats.StatesExplored, pruned.Stats.PrefixPruned, pruned.Stats.SymmetryPruned,
				plain.Stats.StatesExplored)
		}
	}
	if !backstopFired {
		t.Error("the post-quiescence check never discarded a state without fork-time keys; the test exercises nothing")
	}
}
