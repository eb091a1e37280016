package core

import (
	"context"
	"fmt"
	"testing"

	"storeatomicity/internal/order"
)

// mergeShards enumerates every shard of a partition and merges, the way
// the distributed coordinator does — the oracle for the equivalence
// tests below.
func mergeShards(t *testing.T, opts Options, part *Partition, workers int) *Result {
	t.Helper()
	ctx := context.Background()
	completed := append([][]PathStep{}, part.Completed...)
	for i, shard := range part.Shards {
		res, err := EnumerateShard(ctx, figure10Prog(), order.Relaxed(), opts, shard, workers)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		for _, e := range res.Executions {
			completed = append(completed, e.Path)
		}
	}
	merged, err := MergeCompleted(ctx, figure10Prog(), order.Relaxed(), opts, completed)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// assertSameBehaviors compares two results' canonical behavior sets.
func assertSameBehaviors(t *testing.T, label string, got, want *Result) {
	t.Helper()
	g, w := sourceSet(got), sourceSet(want)
	if len(g) != len(w) {
		t.Errorf("%s: %d behaviors, want %d", label, len(g), len(w))
	}
	for k := range w {
		if !g[k] {
			t.Errorf("%s: missing behavior %q", label, k)
		}
	}
	for k := range g {
		if !w[k] {
			t.Errorf("%s: extra behavior %q", label, k)
		}
	}
}

// TestPartitionMergeEquivalence: partition → enumerate shards → merge
// reproduces the sequential engine's behavior set exactly, across shard
// targets that exercise "no split needed", modest splits, and a frontier
// wider than the program is deep.
func TestPartitionMergeEquivalence(t *testing.T) {
	base := fullRun(t)
	for _, target := range []int{1, 2, 5, 16, 64} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("target=%d,workers=%d", target, workers), func(t *testing.T) {
				part, err := PartitionFrontier(context.Background(), figure10Prog(), order.Relaxed(), Options{}, target)
				if err != nil {
					t.Fatal(err)
				}
				if len(part.Shards)+len(part.Completed) == 0 {
					t.Fatal("empty partition")
				}
				merged := mergeShards(t, Options{}, part, workers)
				assertSameBehaviors(t, "merged", merged, base)
			})
		}
	}
}

// TestPartitionMergeWithPruning: shard-local pruning (prefix + symmetry
// + spill budget) cannot change the merged set — the distributed
// correctness argument in partition.go, exercised end to end.
func TestPartitionMergeWithPruning(t *testing.T) {
	opts := Options{DedupMemBudget: 1 << 10}
	base, err := Enumerate(context.Background(), figure10Prog(), order.Relaxed(), opts)
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionFrontier(context.Background(), figure10Prog(), order.Relaxed(), opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	merged := mergeShards(t, opts, part, 1)
	assertSameBehaviors(t, "pruned merge", merged, base)
}

// TestPartitionSeededMerge: seeding each shard with the fingerprints its
// predecessors exported (the distributed fingerprint exchange) skips
// already-explored subtrees — the seeded shards explore fewer states than
// the same shards unseeded — without losing behaviors.
func TestPartitionSeededMerge(t *testing.T) {
	base := fullRun(t)
	ctx := context.Background()
	part, err := PartitionFrontier(ctx, figure10Prog(), order.Relaxed(), Options{}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Shards) < 2 {
		t.Skipf("only %d shards; need 2 to exchange fingerprints", len(part.Shards))
	}
	completed := append([][]PathStep{}, part.Completed...)
	var seen []uint64
	seeded, unseeded := 0, 0
	for i, shard := range part.Shards {
		res, err := EnumerateShard(ctx, figure10Prog(), order.Relaxed(), Options{ExportSeen: true, SeedSeen: seen}, shard, 1)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		alone, err := EnumerateShard(ctx, figure10Prog(), order.Relaxed(), Options{}, shard, 1)
		if err != nil {
			t.Fatalf("shard %d unseeded: %v", i, err)
		}
		seeded += res.Stats.StatesExplored
		unseeded += alone.Stats.StatesExplored
		seen = append(seen, res.SeenExport...)
		for _, e := range res.Executions {
			completed = append(completed, e.Path)
		}
	}
	if seeded >= unseeded {
		t.Errorf("%d shards: seeded explored %d states, unseeded %d; the exchange saved nothing",
			len(part.Shards), seeded, unseeded)
	}
	merged, err := MergeCompleted(ctx, figure10Prog(), order.Relaxed(), Options{}, completed)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBehaviors(t, "seeded merge", merged, base)
}

// TestMergeIsCanonical: merging the same paths in different orders gives
// byte-identical execution sequences — the "bit-identical" half of the
// distributed claim.
func TestMergeIsCanonical(t *testing.T) {
	ctx := context.Background()
	base := fullRun(t)
	var paths [][]PathStep
	for _, e := range base.Executions {
		paths = append(paths, e.Path)
	}
	a, err := MergeCompleted(ctx, figure10Prog(), order.Relaxed(), Options{}, paths)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([][]PathStep, len(paths))
	for i, p := range paths {
		rev[len(paths)-1-i] = p
	}
	b, err := MergeCompleted(ctx, figure10Prog(), order.Relaxed(), Options{}, rev)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Executions) != len(b.Executions) {
		t.Fatalf("merge order changed the set size: %d vs %d", len(a.Executions), len(b.Executions))
	}
	for i := range a.Executions {
		if a.Executions[i].SourceKey() != b.Executions[i].SourceKey() {
			t.Fatalf("execution %d differs across merge orders", i)
		}
		if a.Executions[i].Key() != b.Executions[i].Key() {
			t.Fatalf("execution %d outcome differs across merge orders", i)
		}
	}
}
