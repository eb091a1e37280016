package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
	"storeatomicity/internal/randprog"
)

// sourceKeySet collects the canonical execution identities of a result.
func sourceKeySet(r *Result) map[string]bool {
	out := map[string]bool{}
	for _, e := range r.Executions {
		out[e.SourceKey()] = true
	}
	return out
}

// TestHashedDedupMatchesStringBaseline: property test over the randprog
// corpus — dedup keyed by the 64-bit Load–Store-graph fingerprint must
// produce exactly the same execution set as dedup keyed by the full
// string signature, under every model and at widths 1 and 2, and the
// DisableDedup ablation must agree too (it explores more states but
// emits the same set).
func TestHashedDedupMatchesStringBaseline(t *testing.T) {
	models := []order.Policy{order.SC(), order.TSO(), order.PSO(), order.Relaxed()}
	for seed := int64(0); seed < 40; seed++ {
		p := randprog.Generate(randprog.Config{Seed: seed, Threads: 2, Ops: 4})
		for _, pol := range models {
			hashed, err := Enumerate(context.Background(), p, pol, Options{})
			if err != nil {
				t.Fatalf("seed %d %s hashed: %v", seed, pol.Name(), err)
			}
			baseline, err := Enumerate(context.Background(), p, pol, Options{dedupString: true})
			if err != nil {
				t.Fatalf("seed %d %s string: %v", seed, pol.Name(), err)
			}
			ablated, err := Enumerate(context.Background(), p, pol, Options{DisableDedup: true})
			if err != nil {
				t.Fatalf("seed %d %s nodedup: %v", seed, pol.Name(), err)
			}
			// Width 2: the sharded sets keep both key encodings too.
			wide, err := EnumerateParallel(context.Background(), p, pol, Options{dedupString: true}, 2)
			if err != nil {
				t.Fatalf("seed %d %s string width 2: %v", seed, pol.Name(), err)
			}

			want := sourceKeySet(baseline)
			for name, got := range map[string]map[string]bool{
				"hashed": sourceKeySet(hashed), "nodedup": sourceKeySet(ablated), "string width 2": sourceKeySet(wide),
			} {
				if len(got) != len(want) {
					t.Fatalf("seed %d %s: %s found %d executions, string baseline %d\nprogram:\n%s",
						seed, pol.Name(), name, len(got), len(want), p)
				}
				for k := range want {
					if !got[k] {
						t.Errorf("seed %d %s: %s missing %q", seed, pol.Name(), name, k)
					}
				}
			}
			// Work accounting must agree exactly between the two key
			// encodings: same states explored, same duplicates.
			if !reflect.DeepEqual(hashed.Stats, baseline.Stats) {
				t.Errorf("seed %d %s: stats diverge: hashed %+v, string %+v",
					seed, pol.Name(), hashed.Stats, baseline.Stats)
			}
			// The ablation really ablates: on programs with any
			// duplicate, it must explore at least as many states.
			if ablated.Stats.StatesExplored < hashed.Stats.StatesExplored {
				t.Errorf("seed %d %s: DisableDedup explored fewer states (%d) than dedup (%d)",
					seed, pol.Name(), ablated.Stats.StatesExplored, hashed.Stats.StatesExplored)
			}
			if ablated.Stats.DuplicatesDiscarded != 0 {
				t.Errorf("seed %d %s: DisableDedup discarded %d duplicates",
					seed, pol.Name(), ablated.Stats.DuplicatesDiscarded)
			}
		}
	}
}

// TestFingerprintMatchesSignatureEquality: the fingerprint must be a
// function of the signature — equal signatures hash equal, and across
// the corpus no two distinct signatures collided (which the dedupcheck
// build enforces engine-wide).
func TestFingerprintMatchesSignatureEquality(t *testing.T) {
	bySig := map[string]uint64{}
	byHash := map[uint64]string{}
	for seed := int64(0); seed < 20; seed++ {
		p := randprog.Generate(randprog.Config{Seed: seed, Threads: 2, Ops: 4})
		res, err := Enumerate(context.Background(), p, order.Relaxed(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range res.Executions {
			// Re-derive both keys from the frozen execution; tag with
			// the seed so distinct programs' keys stay distinct.
			sig := fmt.Sprintf("s%d/%d|%s", seed, len(e.Nodes), e.SourceKey())
			h := fnvMix(e.Fingerprint(), uint64(seed))
			if prev, ok := bySig[sig]; ok && prev != h {
				t.Fatalf("execution %d: equal keys hashed differently", i)
			}
			bySig[sig] = h
			if prev, ok := byHash[h]; ok && prev != sig {
				t.Fatalf("fingerprint collision: %q vs %q", prev, sig)
			}
			byHash[h] = sig
		}
	}
}

// TestExecutionFingerprintDistinguishes: two different executions of the
// same program get different fingerprints, and the fingerprint is stable
// across enumerations.
func TestExecutionFingerprintDistinguishes(t *testing.T) {
	b := program.NewBuilder()
	b.Thread("A").StoreL("S1", program.X, 1).LoadL("L1", 1, program.Y)
	b.Thread("B").StoreL("S2", program.Y, 1).LoadL("L2", 2, program.X)
	p := b.Build()
	res1, err := Enumerate(context.Background(), p, order.TSO(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Enumerate(context.Background(), p, order.TSO(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, e := range res1.Executions {
		if seen[e.Fingerprint()] {
			t.Errorf("duplicate fingerprint within one result set")
		}
		seen[e.Fingerprint()] = true
	}
	if len(res1.Executions) != len(res2.Executions) {
		t.Fatal("nondeterministic enumeration")
	}
	for i := range res1.Executions {
		if res1.Executions[i].Fingerprint() != res2.Executions[i].Fingerprint() {
			t.Errorf("fingerprint unstable across runs at %d", i)
		}
	}
}

// fnvMixBytes is the plain FNV-1a byte loop that fnvMix's two-step path
// must match: the oracle for TestFnvMixMatchesByteLoop.
func fnvMixBytes(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// TestFnvMixMatchesByteLoop: fnvMix returns the byte loop's value for
// every word, on both sides of its two-step condition — edge words, the
// NoNode pairs, and random dense and sparse words — and its folded
// prime is fnvPrime64⁴.
func TestFnvMixMatchesByteLoop(t *testing.T) {
	if p := uint64(fnvPrime64); p*p*p*p != fnvPrime64x4 {
		t.Fatalf("fnvPrime64x4 = %d, want fnvPrime64^4 = %d", uint64(fnvPrime64x4), p*p*p*p)
	}
	source := NoNode // a variable: the constant -1 does not convert to uint32
	noNode := uint64(uint32(source))
	words := []uint64{
		0, 1, 0xff, 0x100, 0x1ff, 1 << 32, 0xff << 32, 0x100 << 32,
		0xff<<32 | 0xff, 0xffffff00_ffffff00, ^uint64(0),
		noNode, noNode << 32, noNode<<32 | 7, 7<<32 | noNode,
	}
	check := func(h, v uint64) {
		if got, want := fnvMix(h, v), fnvMixBytes(h, v); got != want {
			t.Fatalf("fnvMix(%#x, %#x) = %#x, byte loop %#x", h, v, got, want)
		}
	}
	for _, v := range words {
		check(fnvOffset64, v)
		check(splitmix64(v), v)
	}
	h := uint64(fnvOffset64)
	for i := uint64(0); i < 1<<20; i++ {
		r := splitmix64(i)
		// Alternate dense words with sparse ones (bytes 0 and 4 only),
		// chaining the hash so every step starts from a fresh state.
		v := r
		if i&1 == 0 {
			v = r & 0x000000ff_000000ff
		}
		check(h, v)
		h = fnvMix(h, v)
	}
}

// TestSeenExportIsEveryKeyAscending: ExportSeen ships every seen-set key
// — one per child that passed its fork-time check, forked or elided — in
// ascending order, so map iteration order never reaches the fingerprints
// a distributed worker ships: two exports of one search are equal, at
// width 1 (one shard) and width 2 (dedupShards shards).
func TestSeenExportIsEveryKeyAscending(t *testing.T) {
	var first []uint64
	for _, workers := range []int{1, 2, 1, 2} {
		res, err := EnumerateParallel(context.Background(), figure10Prog(), order.Relaxed(), Options{ExportSeen: true}, workers)
		if err != nil {
			t.Fatal(err)
		}
		got := res.SeenExport
		if !slices.IsSorted(got) {
			t.Fatalf("width %d: export not ascending", workers)
		}
		if n := res.Stats.Forks + res.Stats.ChildrenElided; len(got) != n {
			t.Fatalf("width %d: exported %d keys, the run admitted %d children", workers, len(got), n)
		}
		if first == nil {
			first = got
		} else if !slices.Equal(got, first) {
			t.Fatalf("width %d: export differs from the first export (%d vs %d keys)", workers, len(got), len(first))
		}
	}
}
