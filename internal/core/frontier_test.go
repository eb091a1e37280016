package core

import (
	"context"
	"math/rand"
	"testing"

	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
)

// synthPath builds a deterministic synthetic resolution path of length n
// keyed by seed — enough structure for the pathBlock codec to delta-
// compress and for order assertions to distinguish entries.
func synthPath(seed, n int) []PathStep {
	p := make([]PathStep, n)
	for i := range p {
		p[i] = PathStep{Load: (seed+i)%7 + 1, Store: (seed*3+i)%5 + 1}
	}
	return p
}

// TestDemotedStackLIFO: interleaved push/popNewest must behave exactly
// like a plain slice stack across the compress/expand block boundaries,
// with metadata tracking its entry.
func TestDemotedStackLIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var d demotedStack
	type entry struct {
		path []PathStep
		m    seenMeta
	}
	var oracle []entry
	for op := 0; op < 5000; op++ {
		if rng.Intn(3) != 0 { // bias to push so blocks form
			e := entry{path: synthPath(op, 1+rng.Intn(20)), m: seenMeta{keyed: op%2 == 0, h: uint64(op)}}
			d.push(e.path, e.m)
			oracle = append(oracle, e)
		} else {
			p, m, ok := d.popNewest()
			if len(oracle) == 0 {
				if ok {
					t.Fatalf("op %d: pop from empty stack returned an entry", op)
				}
				continue
			}
			want := oracle[len(oracle)-1]
			oracle = oracle[:len(oracle)-1]
			if !ok {
				t.Fatalf("op %d: pop returned empty, oracle has %d", op, len(oracle)+1)
			}
			assertPathEqual(t, op, p, want.path)
			if m != want.m {
				t.Fatalf("op %d: meta %+v, want %+v", op, m, want.m)
			}
		}
		if d.count() != len(oracle) {
			t.Fatalf("op %d: count %d, oracle %d", op, d.count(), len(oracle))
		}
	}
}

// TestDemotedStackStealsOldest: takeOldest consumes the logical bottom in
// FIFO order while popNewest keeps serving the top, including when steals
// crack compressed blocks open.
func TestDemotedStackStealsOldest(t *testing.T) {
	var d demotedStack
	const n = 300
	for i := 0; i < n; i++ {
		d.push(synthPath(i, 3+i%9), seenMeta{h: uint64(i)})
	}
	// Alternate: steal from the bottom, pop from the top.
	lo, hi := 0, n-1
	for lo <= hi {
		p, m, ok := d.takeOldest()
		if !ok {
			t.Fatalf("takeOldest empty at lo=%d hi=%d", lo, hi)
		}
		if m.h != uint64(lo) {
			t.Fatalf("takeOldest meta %d, want %d", m.h, lo)
		}
		assertPathEqual(t, lo, p, synthPath(lo, 3+lo%9))
		lo++
		if lo > hi {
			break
		}
		p, m, ok = d.popNewest()
		if !ok {
			t.Fatalf("popNewest empty at lo=%d hi=%d", lo, hi)
		}
		if m.h != uint64(hi) {
			t.Fatalf("popNewest meta %d, want %d", m.h, hi)
		}
		assertPathEqual(t, hi, p, synthPath(hi, 3+hi%9))
		hi--
	}
	if d.count() != 0 {
		t.Fatalf("stack not drained: %d left", d.count())
	}
}

// TestDemotedStackAppendPaths: the checkpoint emitter returns every
// entry oldest-first, straight from storage (blocks expanded, no replay).
func TestDemotedStackAppendPaths(t *testing.T) {
	var d demotedStack
	const n = 150
	for i := 0; i < n; i++ {
		d.push(synthPath(i, 2+i%5), seenMeta{})
	}
	paths := d.appendPaths(nil)
	if len(paths) != n {
		t.Fatalf("appendPaths: %d paths, want %d", len(paths), n)
	}
	for i, p := range paths {
		assertPathEqual(t, i, p, synthPath(i, 2+i%5))
	}
	if d.count() != n {
		t.Fatalf("appendPaths consumed the stack: count %d, want %d", d.count(), n)
	}
}

func assertPathEqual(t *testing.T, who int, got, want []PathStep) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d: path length %d, want %d", who, len(got), len(want))
	}
	for i := range want {
		if got[i].Load != want[i].Load || got[i].Store != want[i].Store {
			t.Fatalf("%d: step %d = %+v, want %+v", who, i, got[i], want[i])
		}
	}
}

// TestFrontierDemotionRoundTrip is the forced demote/re-materialize test:
// a 1-byte resident budget demotes every queued state through the
// pathBlock codec and revives each by replay, and the resulting behavior
// set must be bit-identical to the undemoted run (TestWidthOneContracts
// pins that width-1 exploration order survives demotion too). Sweeps
// widths 1, 2 and 4 and a speculative model so revival replays
// rollback-prone paths too. figure10Prog has no automorphism; the
// symmetric store-buffering program makes revived states carry
// canonical keys and completed runs expand orbits.
func TestFrontierDemotionRoundTrip(t *testing.T) {
	progs := []struct {
		name string
		prog func() *program.Program
		opts Options
	}{
		{"default", figure10Prog, Options{}},
		{"speculative", figure10Prog, Options{Speculative: true}},
		{"nodedup", figure10Prog, Options{DisableDedup: true}},
		{"symmetry", sbProgram, Options{}},
	}
	for _, tc := range progs {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.prog()
			base, err := Enumerate(context.Background(), p, order.Relaxed(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "symmetry" && base.Stats.SymmetryPruned == 0 {
				t.Fatal("symmetry reduction never fired")
			}
			tiny := tc.opts
			tiny.FrontierResidentBytes = 1
			squeezed, err := Enumerate(context.Background(), p, order.Relaxed(), tiny)
			if err != nil {
				t.Fatal(err)
			}
			if squeezed.Stats.FrontierDemoted == 0 {
				t.Fatal("1-byte budget demoted nothing")
			}
			if got, want := keysOf(squeezed), keysOf(base); got != want {
				t.Fatalf("width-1 demoted run diverged:\n got %s\nwant %s", got, want)
			}
			for _, workers := range []int{2, 4} {
				par, err := EnumerateParallel(context.Background(), p, order.Relaxed(), tiny, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := setOf(par), setOf(base); got != want {
					t.Fatalf("workers=%d demoted run diverged:\n got %s\nwant %s", workers, got, want)
				}
			}
		})
	}
}

// keysOf renders the executions in result order. The engine returns them
// in one canonical order at every width, so equal strings mean equal
// behavior sets in equal order.
func keysOf(r *Result) string {
	s := ""
	for _, e := range r.Executions {
		s += e.SourceKey() + ";"
	}
	return s
}

// setOf renders the behavior set order-independently.
func setOf(r *Result) string {
	keys := map[string]bool{}
	for _, e := range r.Executions {
		keys[e.SourceKey()] = true
	}
	out := make([]string, 0, len(keys))
	for k := range keys {
		out = append(out, k)
	}
	sortStrings(out)
	s := ""
	for _, k := range out {
		s += k + ";"
	}
	return s
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TestFrontierCheckpointResumeWithDemotion: a checkpoint taken from a
// demoting run serializes demoted entries straight from their stored
// paths; resuming it (with and without a budget) completes the exact
// behavior set.
func TestFrontierCheckpointResumeWithDemotion(t *testing.T) {
	p := figure10Prog()
	base, err := Enumerate(context.Background(), p, order.Relaxed(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{FrontierResidentBytes: 1, MaxBehaviors: 8}
	res, err := Enumerate(context.Background(), p, order.Relaxed(), opts)
	if err == nil || res.Incomplete == nil {
		t.Fatal("budget run completed exhaustively; cannot build a mid-run checkpoint")
	}
	c := checkpointNow("Relaxed", ProgramHash(p), opts.withDefaults(), res.Stats.StatesExplored,
		completedOf(res), res.Incomplete.Frontier)
	for _, budget := range []int64{0, 1} {
		ropts := Options{FrontierResidentBytes: budget}
		got, err := Resume(context.Background(), p, order.Relaxed(), ropts, c, 1)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if g, w := setOf(got), setOf(base); g != w {
			t.Fatalf("budget %d: resumed set diverged:\n got %s\nwant %s", budget, g, w)
		}
	}
}

func completedOf(r *Result) [][]PathStep {
	var out [][]PathStep
	for _, e := range r.Executions {
		out = append(out, e.Path)
	}
	return out
}

// TestAutoFrontierBudgetScales pins the auto budget's shape: proportional
// to the per-state ceiling, and generous enough that default-sized runs
// never demote (the existing suite would notice otherwise).
func TestAutoFrontierBudgetScales(t *testing.T) {
	small, big := autoFrontierBudget(64), autoFrontierBudget(192)
	if small <= 0 || big <= small {
		t.Fatalf("auto budgets not increasing: %d, %d", small, big)
	}
	if small < 1<<20 {
		t.Fatalf("auto budget suspiciously small: %d", small)
	}
	res, err := Enumerate(context.Background(), figure10Prog(), order.Relaxed(),
		Options{FrontierResidentBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FrontierDemoted != 0 {
		t.Fatalf("auto budget demoted %d states on a default-sized run", res.Stats.FrontierDemoted)
	}
}
