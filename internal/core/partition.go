package core

import (
	"context"
	"errors"
	"fmt"

	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
)

// Distributed enumeration primitives. A coordinator splits the behavior
// tree near the root into replayable-path shards (PartitionFrontier),
// workers enumerate each shard's subtree independently (EnumerateShard),
// and the coordinator folds completed paths back into one canonical
// result (MergeCompleted).
//
// The correctness argument is local: dedup, prefix pruning, and symmetry
// reduction inside a shard consult only that shard's own seen-set, so a
// shard run is sound exactly as a single-process run is. The partition
// itself applies no pruning at all — every leaf of the full tree lies in
// exactly one shard's subtree (or in Completed) — so the union of fully
// enumerated shards covers every behavior, possibly with cross-shard
// duplicates, and the fingerprint dedup in MergeCompleted collapses
// those. The merged behavior set is therefore bit-identical to the
// single-process engine's at any shard count and any per-shard worker
// count. Cross-shard fingerprint seeding (Options.SeedSeen) is sound
// only with fingerprints exported by shards that completed cleanly:
// their subtrees are fully explored and already merged, so suppressing
// a seeded state elsewhere cannot lose behaviors.

// Partition is a frontier split: Shards are replayable paths to
// independent subtrees jointly covering every behavior not already in
// Completed.
type Partition struct {
	// Completed holds the paths of behaviors that finished during the
	// shallow partitioning sweep (short programs complete before the
	// tree is wide enough to split).
	Completed [][]PathStep
	// Shards are frontier paths, one work unit each; enumerating every
	// shard and merging with Completed reproduces the full set.
	Shards [][]PathStep
	// StatesExplored counts states processed by the sweep itself.
	StatesExplored int
}

// PartitionFrontier runs a breadth-first sweep from the root until at
// least target independent subtrees are on the frontier (or the tree is
// exhausted). The sweep deliberately applies no dedup or pruning —
// duplicate shards only duplicate work, never results — so its soundness
// does not depend on any seen-set being shared with the workers.
func PartitionFrontier(ctx context.Context, p *program.Program, pol order.Policy, opts Options, target int) (*Partition, error) {
	opts = opts.withDefaults()
	if target < 1 {
		target = 1
	}
	part := &Partition{}
	queue := []*state{newState(p, pol, opts)}
	for len(queue) > 0 && len(queue) < target {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		s := queue[0]
		queue = queue[1:]
		part.StatesExplored++
		if err := s.runToQuiescence(); err != nil {
			if err == errInconsistent {
				// Speculative rollback: not a behavior, drop it.
				continue
			}
			if errors.Is(err, errNodeBudget) {
				return nil, fmt.Errorf("core: partition sweep: %w", err)
			}
			return nil, err
		}
		if s.done() {
			part.Completed = append(part.Completed, copyPath(s.path))
			continue
		}
		progressed := false
		for lid := range s.nodes {
			if !s.eligibleCached(lid) {
				continue
			}
			for _, sid := range s.candidates(lid) {
				ns := s.clone()
				if err := ns.resolveLoad(lid, sid); err != nil {
					continue // rollback under speculation
				}
				if err := ns.closure(); err != nil {
					continue
				}
				progressed = true
				queue = append(queue, ns)
			}
		}
		if !progressed && s.hasEligibleLoad() {
			// Every candidate of every eligible load rolled back: this
			// behavior dies here, like in the engine.
			continue
		}
	}
	for _, s := range queue {
		part.Shards = append(part.Shards, copyPath(s.path))
	}
	return part, nil
}

// EnumerateShard enumerates the subtree a shard path leads to, exactly
// as the engine would have processed that state off its work list, at
// the given width.
func EnumerateShard(ctx context.Context, p *program.Program, pol order.Policy, opts Options, shard []PathStep, workers int) (*Result, error) {
	opts = opts.withDefaults()
	s, err := replayPath(p, pol, opts, shard)
	if err != nil {
		return nil, fmt.Errorf("core: shard replay: %w", err)
	}
	return enumerateParallelFrom(ctx, p, pol, opts, workers, &resumeSeed{work: []*state{s}})
}

// MergeCompleted folds completed behavior paths — the coordinator's
// partition-time completions plus every shard's results — into one
// canonical Result. Each path is replayed and deduplicated by
// fingerprint, so cross-shard duplicates collapse; with symmetry on,
// orbit re-expansion is idempotent over the already-expanded shard
// results. The engine returns the executions in its canonical order (by
// fingerprint, then source key), so the merged set is byte-stable
// independent of shard order and worker count.
func MergeCompleted(ctx context.Context, p *program.Program, pol order.Policy, opts Options, completed [][]PathStep) (*Result, error) {
	opts = opts.withDefaults()
	seed := &resumeSeed{}
	for i, steps := range completed {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		s, err := replayCompleted(p, pol, opts, steps)
		if err != nil {
			return nil, fmt.Errorf("core: merge path %d: %w", i, err)
		}
		seed.finals = append(seed.finals, s)
	}
	res, err := enumerateParallelFrom(ctx, p, pol, opts, 1, seed)
	if err != nil {
		return nil, err
	}
	return res, nil
}
