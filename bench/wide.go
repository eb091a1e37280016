package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"storeatomicity/internal/core"
	"storeatomicity/internal/dist"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/program"
)

// enum-wide: big searches through core.EnumerateParallel at width 2
// under 256 KiB frontier and seen-set budgets, so resolve/closure, dedup
// spill, frontier demote/revive and work stealing do most of the work.

// wideSB renders the rotation-symmetric wide store-buffering program:
// each of n threads stores val to its own address and then loads the
// next `loads` threads' addresses. Requires loads < threads.
func wideSB(threads, loads, val int) string {
	src := fmt.Sprintf("name SBW%dx%d-%d\n", threads, loads, val)
	for i := 0; i < threads; i++ {
		src += fmt.Sprintf("thread T%d\n  S m%d, %d\n", i, i, val)
		for k := 1; k <= loads; k++ {
			src += fmt.Sprintf("  r%d = L m%d\n", k, (i+k)%threads)
		}
	}
	return src
}

type wideProg struct {
	threads, loads int
	src            string
	prog           *program.Program
}

// genWideDeck draws one deck: for each shape, count programs with
// distinct seeded store values, in seeded order. The shape mix is fixed,
// so every seed costs the same; the seed moves values and order only.
func genWideDeck(seed int64, shapes [][3]int) ([]wideProg, error) {
	rng := rand.New(rand.NewSource(seed))
	used := map[int]bool{}
	var deck []wideProg
	for _, sh := range shapes {
		for k := 0; k < sh[2]; k++ {
			val := 1 + rng.Intn(1<<20)
			for used[val] {
				val = 1 + rng.Intn(1<<20)
			}
			used[val] = true
			src := wideSB(sh[0], sh[1], val)
			tc, err := litmus.Parse(src)
			if err != nil {
				return nil, fmt.Errorf("wide SB %dx%d: %w", sh[0], sh[1], err)
			}
			deck = append(deck, wideProg{sh[0], sh[1], src, tc.Build()})
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck, nil
}

type enumWide struct {
	seed   int64
	shapes [][3]int // threads, loads, programs per deck
	tally  *tally
	opts   core.Options
	model  litmus.Model
	deck   []wideProg
	eng    engineTally
}

// wideWidth is the engine width: the host's two CPUs.
const wideWidth = 2

func newEnumWide(cfg config, t *tally) workload {
	w := &enumWide{seed: cfg.seed, tally: t, opts: engineOpts()}
	w.model, _ = litmus.ModelByName("Relaxed")
	w.shapes = [][3]int{{4, 3, 1}, {5, 2, 2}}
	w.opts.FrontierResidentBytes = 256 << 10
	w.opts.DedupMemBudget = 256 << 10
	if cfg.tiny {
		// Small programs under budgets small enough to still demote and spill.
		w.shapes = [][3]int{{3, 2, 1}, {4, 2, 2}}
		w.opts.FrontierResidentBytes = 4 << 10
		w.opts.DedupMemBudget = 4 << 10
	}
	return w
}

func (w *enumWide) setup(ctx context.Context) error {
	deck, err := genWideDeck(w.seed, w.shapes)
	if err != nil {
		return err
	}
	w.deck = deck
	// Warm-up: one program of the cheapest shape.
	cheapest := w.deck[0]
	for _, wp := range w.deck {
		if wp.threads*wp.loads < cheapest.threads*cheapest.loads {
			cheapest = wp
		}
	}
	_, err = w.enumerate(ctx, cheapest, nil)
	return err
}

func (w *enumWide) enumerate(ctx context.Context, wp wideProg, ph *phase) (*core.Result, error) {
	opts := w.opts
	if ph != nil {
		opts.Metrics = ph.enum
	}
	return core.EnumerateParallel(ctx, wp.prog, w.model.Policy, opts, wideWidth)
}

// run enumerates the deck in order, whole decks at a time, so every
// phase measures the same mix. Under Relaxed every load reads either the
// initial value or its address's single store, so each program must
// have exactly 2^(threads·loads) behaviours.
func (w *enumWide) run(ctx context.Context, ph *phase) {
	w.eng = engineTally{prefix: len(w.deck)}
	ph.closedLoop(len(w.deck), func(i, root int) (func(), error) {
		wp := w.deck[i%len(w.deck)]
		start := time.Now()
		res, err := w.enumerate(ctx, wp, ph)
		end := time.Now()
		ph.tr.add(ph.tr.reserve(), "core.enumerate", 0, i, root, start, end)
		if err != nil {
			return nil, err
		}
		w.eng.add(i, res, end.Sub(start))
		return func() {
			if want := 1 << (wp.threads * wp.loads); len(res.Executions) != want {
				w.tally.fail("SBW%dx%d: %d behaviours, want %d", wp.threads, wp.loads, len(res.Executions), want)
			}
			if ph.golden.needs(i) {
				ph.golden.add(i, dist.Canonical(res))
			}
		}, nil
	})
}

func (w *enumWide) verify(context.Context) {}

func (w *enumWide) goldenOps() int { return len(w.deck) }

// layers also checks that the mechanisms this workload exists for did
// run: frontier demotion, dedup spill and work stealing.
func (w *enumWide) layers(ph *phase, v values) {
	coreLayer(v, w.eng.snapshot(), w.eng.counted, ph.enum.Snapshot(), ph.ops, w.eng.seconds)
	for _, name := range []string{"core.frontier_demoted", "core.spill_runs", "core.steals"} {
		w.tally.check(v[name] > 0, "enum-wide: %s is 0; the workload no longer exercises it", name)
	}
}

func (w *enumWide) close() error { return nil }
