package core_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/order"
	"storeatomicity/internal/randprog"
)

// The COW invariant, mirroring the pruning invariant: copy-on-write
// closure sharing and trial application are engine implementation
// details, so the final behavior set must be bit-identical to the
// reference engine's with COW on and off, at one and N workers, under
// every model — including the symmetry orbit-replay and checkpoint/resume
// paths, which rebuild states from scratch.

// cowConfigs pairs each fork mode with and without symmetry reduction:
// "on" is the engine, "off" its deep-copy fork-then-resolve form, and
// the "+nosym" pair runs without orbit replay.
func cowConfigs() map[string]core.Options {
	return map[string]core.Options{
		"on":        {},
		"off":       core.DeepCopyForks(core.Options{}),
		"on+nosym":  core.NoSymmetry(core.Options{}),
		"off+nosym": core.DeepCopyForks(core.NoSymmetry(core.Options{})),
	}
}

// TestCOWBitIdenticalLitmus checks the invariant over the full litmus
// corpus (E2–E14) under every model, at one and four workers.
func TestCOWBitIdenticalLitmus(t *testing.T) {
	ctx := context.Background()
	for _, lt := range litmus.Registry() {
		if testing.Short() && (lt.Name == "SB3W" || lt.Name == "IRIW" || lt.Name == "IRIW+Fences") {
			continue
		}
		for _, m := range litmus.Models() {
			want, err := reference(ctx, lt, m)
			if err != nil {
				t.Fatalf("%s/%s reference: %v", lt.Name, m.Name, err)
			}
			wantKeys := behaviorKeys(want)
			for cname, opts := range cowConfigs() {
				for _, workers := range []int{1, 4} {
					got, err := litmus.RunContext(ctx, lt, m, opts, workers)
					if err != nil {
						t.Fatalf("%s/%s %s w%d: %v", lt.Name, m.Name, cname, workers, err)
					}
					if gotKeys := behaviorKeys(got); !slices.Equal(gotKeys, wantKeys) {
						t.Errorf("%s/%s: cow=%s at %d workers changed the behavior set: %d executions vs reference %d",
							lt.Name, m.Name, cname, workers, len(gotKeys), len(wantKeys))
					}
				}
			}
		}
	}
}

// TestTrialFrontierBitIdenticalLitmus is the fork-elision acceptance
// gate. The reference engine clones every child before resolving it;
// against it we sweep the trial-apply engine with the path-compressed
// frontier in every regime — off (0), forced to demote everything (1 byte), and
// the auto budget (-1) — at 1, 2, and 4 workers. Behavior sets must be
// bit-identical everywhere, and the forced-budget legs must actually
// demote (otherwise the sweep silently stops covering revival-by-replay).
func TestTrialFrontierBitIdenticalLitmus(t *testing.T) {
	ctx := context.Background()
	configs := []struct {
		name string
		opts core.Options
	}{
		{"trial", core.Options{}},
		{"trial+fr1", core.Options{FrontierResidentBytes: 1}},
		{"trial+fr-auto", core.Options{FrontierResidentBytes: -1}},
		{"deep+fr1", core.DeepCopyForks(core.Options{FrontierResidentBytes: 1})},
	}
	demoted := 0
	for _, lt := range litmus.Registry() {
		if testing.Short() && (lt.Name == "SB3W" || lt.Name == "IRIW" || lt.Name == "IRIW+Fences") {
			continue
		}
		for _, m := range litmus.Models() {
			want, err := reference(ctx, lt, m)
			if err != nil {
				t.Fatalf("%s/%s oracle: %v", lt.Name, m.Name, err)
			}
			wantKeys := behaviorKeys(want)
			for _, c := range configs {
				for _, workers := range []int{1, 2, 4} {
					got, err := litmus.RunContext(ctx, lt, m, c.opts, workers)
					if err != nil {
						t.Fatalf("%s/%s %s w%d: %v", lt.Name, m.Name, c.name, workers, err)
					}
					if gotKeys := behaviorKeys(got); !slices.Equal(gotKeys, wantKeys) {
						t.Errorf("%s/%s: %s at %d workers changed the behavior set: %d executions vs oracle %d",
							lt.Name, m.Name, c.name, workers, len(gotKeys), len(wantKeys))
					}
					demoted += got.Stats.FrontierDemoted
				}
			}
		}
	}
	if demoted == 0 {
		t.Error("no run in the sweep demoted a frontier state — the forced-budget legs are not exercising revival")
	}
}

// TestCOWBitIdenticalRand extends the invariant to the randprog corpus:
// register-indirect addressing, branches, and RMWs hit fork/mutation
// interleavings the litmus tests never produce.
func TestCOWBitIdenticalRand(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 40
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
			want, err := core.Enumerate(ctx, p, pol, core.DeepCopyForks(core.Options{}))
			if err != nil {
				t.Fatalf("seed %d %s deep-copy forks: %v", seed, pol.Name(), err)
			}
			wantKeys := behaviorKeys(want)
			got, err := core.Enumerate(ctx, p, pol, core.Options{})
			if err != nil {
				t.Fatalf("seed %d %s cow=on: %v", seed, pol.Name(), err)
			}
			if gotKeys := behaviorKeys(got); !slices.Equal(gotKeys, wantKeys) {
				t.Fatalf("seed %d %s: COW behavior set diverges (%d vs %d executions)\nprogram:\n%s",
					seed, pol.Name(), len(gotKeys), len(wantKeys), p)
			}
			// Parallel spot check on a rotating subset to bound runtime.
			if seed%5 == 0 {
				gotPar, err := core.EnumerateParallel(ctx, p, pol, core.Options{}, 4)
				if err != nil {
					t.Fatalf("seed %d %s cow=on parallel: %v", seed, pol.Name(), err)
				}
				if gotKeys := behaviorKeys(gotPar); !slices.Equal(gotKeys, wantKeys) {
					t.Fatalf("seed %d %s: parallel COW behavior set diverges (%d vs %d executions)\nprogram:\n%s",
						seed, pol.Name(), len(gotKeys), len(wantKeys), p)
				}
			}
		}
	}
}

// TestCOWCheckpointResumeCrossMode interrupts a run in one COW mode,
// then resumes it in the other: the replayed frontier states are fresh
// fork families (or deep graphs), and the combined set must still equal
// an uninterrupted run's. Both directions, both engines.
func TestCOWCheckpointResumeCrossMode(t *testing.T) {
	ctx := context.Background()
	lt, ok := litmus.ByName("Figure10")
	if !ok {
		t.Fatal("litmus test Figure10 not registered")
	}
	m, _ := litmus.ModelByName("Relaxed")
	full, err := litmus.RunContext(ctx, lt, m, core.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := behaviorKeys(full)
	prog := lt.Build()
	for _, dir := range []struct {
		name           string
		interrupted    core.Options
		resumed        core.Options
		resumedWorkers int
	}{
		{"on-then-off", core.Options{}, core.DeepCopyForks(core.Options{}), 1},
		{"off-then-on", core.DeepCopyForks(core.Options{}), core.Options{}, 4},
	} {
		budget := full.Stats.StatesExplored / 3
		dir.interrupted.MaxBehaviors = budget
		partial, err := litmus.RunContext(ctx, lt, m, dir.interrupted, 2)
		if !errors.Is(err, core.ErrIncomplete) {
			t.Fatalf("%s: err = %v, want incomplete", dir.name, err)
		}
		ckpt := partial.Checkpoint(prog, dir.interrupted)
		res, err := core.Resume(ctx, prog, m.Policy, dir.resumed, ckpt, dir.resumedWorkers)
		if err != nil {
			t.Fatalf("%s: resume: %v", dir.name, err)
		}
		if gotKeys := behaviorKeys(res); !slices.Equal(gotKeys, wantKeys) {
			t.Errorf("%s: resumed behavior set diverges (%d vs %d executions)",
				dir.name, len(gotKeys), len(wantKeys))
		}
	}
}

// TestCOWActuallyShares pins the point of COW forks: on a real
// enumeration the overwhelming majority of rows must be adopted by
// reference, not copied — and the reference engine's deep-copy forks
// leave the counters at zero.
func TestCOWActuallyShares(t *testing.T) {
	ctx := context.Background()
	lt, ok := litmus.ByName("Figure10")
	if !ok {
		t.Fatal("litmus test Figure10 not registered")
	}
	m, _ := litmus.ModelByName("Relaxed")
	res, err := litmus.RunContext(ctx, lt, m, core.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CowRowsShared == 0 {
		t.Fatal("CowRowsShared = 0 on a COW run")
	}
	if res.Stats.CowRowsCopied >= res.Stats.CowRowsShared {
		t.Errorf("COW copied more rows (%d) than it shared (%d) — sharing is not paying off",
			res.Stats.CowRowsCopied, res.Stats.CowRowsShared)
	}
	off, err := reference(ctx, lt, m)
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats.CowRowsShared != 0 || off.Stats.CowRowsCopied != 0 {
		t.Errorf("reference run reports COW activity: %+v", off.Stats)
	}
}
