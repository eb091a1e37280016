package graph

import (
	"math/rand"
	"testing"
)

// cowSnapshot deep-copies the observable relation of g so later
// mutations of g (or of graphs sharing rows with g) can be detected.
func cowSnapshot(g *Graph) [][2]Bits {
	out := make([][2]Bits, g.Len())
	for i := 0; i < g.Len(); i++ {
		out[i] = [2]Bits{g.Desc(i).Clone(), g.Anc(i).Clone()}
	}
	return out
}

func assertClosureEqual(t *testing.T, g *Graph, want [][2]Bits, who string) {
	t.Helper()
	if g.Len() != len(want) {
		t.Fatalf("%s: node count %d, want %d", who, g.Len(), len(want))
	}
	for i := range want {
		if !g.Desc(i).Equal(want[i][0]) {
			t.Fatalf("%s: desc(%d) = %v, want %v", who, i, g.Desc(i), want[i][0])
		}
		if !g.Anc(i).Equal(want[i][1]) {
			t.Fatalf("%s: anc(%d) = %v, want %v", who, i, g.Anc(i), want[i][1])
		}
	}
}

// addRandomEdges inserts k random acyclic edges, skipping rejects.
func addRandomEdges(g *Graph, rng *rand.Rand, k int) {
	n := g.Len()
	for i := 0; i < k; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if g.WouldCycle(a, b) {
			continue
		}
		_ = g.AddEdge(a, b, EdgeLocal)
	}
}

// TestCOWForkIndependence is the aliasing property test at the graph
// layer: fork a chain of graphs, interleave mutations on every live
// member, and assert no graph ever observes another's writes.
func TestCOWForkIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		const n = 12
		root := New(n, n)
		addRandomEdges(root, rng, 6)

		live := []*Graph{root}
		oracle := []*Graph{root.Clone()}
		for round := 0; round < 4; round++ {
			// Fork a random live graph, then mutate a random (possibly
			// different, possibly the parent) live graph.
			p := live[rng.Intn(len(live))]
			child := p.CloneInto(nil)
			live = append(live, child)
			oracle = append(oracle, child.Clone())

			for m := 0; m < 3; m++ {
				i := rng.Intn(len(live))
				addRandomEdges(live[i], rng, 2)
				oracle[i] = live[i].Clone()
				// Every OTHER graph must be bit-identical to its oracle.
				for j := range live {
					if j == i {
						continue
					}
					assertClosureEqual(t, live[j], cowSnapshot(oracle[j]),
						"bystander graph")
				}
			}
		}
		// Final sweep: each graph matches its own oracle.
		for i := range live {
			assertClosureEqual(t, live[i], cowSnapshot(oracle[i]), "final")
		}
	}
}

// TestCOWParentMutationAfterFork pins the freeze-both-sides contract:
// CloneInto re-generations the PARENT too, so even parent writes after a
// fork are copy-on-write and invisible to the child.
func TestCOWParentMutationAfterFork(t *testing.T) {
	p := New(4, 4)
	mustOK(t, p.AddEdge(0, 1, EdgeLocal))
	c := p.CloneInto(nil)
	before := cowSnapshot(c)

	mustOK(t, p.AddEdge(1, 2, EdgeLocal))
	mustOK(t, p.AddEdge(2, 3, EdgeLocal))
	assertClosureEqual(t, c, before, "child after parent writes")

	pBefore := cowSnapshot(p)
	mustOK(t, c.AddEdge(3, 0, EdgeLocal)) // legal in c: c lacks 0@3
	assertClosureEqual(t, p, pBefore, "parent after child write")
}

// TestCOWSlabGrowthBeyondHint grows a graph far past its capacity hint
// (forcing both row widening and arena reallocation) and checks the
// incrementally-maintained closure against the recompute oracle.
func TestCOWSlabGrowthBeyondHint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(0, 2) // tiny hint: every growth path fires
	for batch := 0; batch < 6; batch++ {
		g.AddNodes(30)
		addRandomEdges(g, rng, 40)
		// A fork in the middle of growth must stay coherent too.
		if batch == 3 {
			c := g.CloneInto(nil)
			snap := cowSnapshot(c)
			addRandomEdges(g, rng, 20)
			assertClosureEqual(t, c, snap, "child across parent growth")
		}
	}
	oracle := g.Clone()
	oracle.RecomputeClosure()
	assertClosureEqual(t, g, cowSnapshot(oracle), "grown graph vs recompute")
}

// TestCOWRecycledDstAbandonsSharedArena is the pool-recycle hazard: a
// parent that forked children is later reused as a CloneInto destination.
// Its slab arena holds rows the children still read, so the recycled
// incarnation must not reuse that memory.
func TestCOWRecycledDstAbandonsSharedArena(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parent := New(16, 16)
	addRandomEdges(parent, rng, 10)

	child := parent.CloneInto(nil)
	// Make the child copy rows into its own slab, then fork grandchildren
	// that share those rows.
	addRandomEdges(child, rng, 10)
	g1 := child.CloneInto(nil)
	g2 := child.CloneInto(nil)
	snap1, snap2 := cowSnapshot(g1), cowSnapshot(g2)

	// Recycle `child` as the destination of an unrelated fork — the exact
	// statePool reuse pattern. Then churn writes through it to stomp any
	// wrongly-reused arena memory.
	other := New(16, 16)
	addRandomEdges(other, rng, 8)
	recycled := other.CloneInto(child)
	addRandomEdges(recycled, rng, 40)

	assertClosureEqual(t, g1, snap1, "grandchild 1 after recycle churn")
	assertClosureEqual(t, g2, snap2, "grandchild 2 after recycle churn")
}

// TestCOWRecomputeClosureIsolated checks that the in-place closure
// rebuild respects row ownership: recomputing a fork must not disturb
// graphs sharing its rows.
func TestCOWRecomputeClosureIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := New(10, 10)
	addRandomEdges(p, rng, 12)
	c := p.CloneInto(nil)
	snap := cowSnapshot(p)

	c.RecomputeClosure()
	assertClosureEqual(t, p, snap, "parent after child recompute")
	// The rebuild itself must be correct.
	oracle := c.Clone()
	oracle.RecomputeClosure()
	assertClosureEqual(t, c, cowSnapshot(oracle), "child recompute")
}

// TestDisableCOWDeepCopies pins the reference engine's deep-copy forks:
// forks share nothing, and a COW-mode retiree recycled into the deep
// path donates no aliased buffers.
func TestDisableCOWDeepCopies(t *testing.T) {
	mk := func() *Graph {
		g := New(0, 8)
		g.DisableCOW()
		g.AddNodes(6)
		return g
	}
	p := mk()
	mustOK(t, p.AddEdge(0, 1, EdgeLocal))
	if p.COWEnabled() {
		t.Fatal("DisableCOW left COW on")
	}
	c := p.CloneInto(nil)
	if c.COWEnabled() {
		t.Fatal("deep fork of a non-COW graph came back COW")
	}
	snap := cowSnapshot(c)
	mustOK(t, p.AddEdge(1, 2, EdgeLocal))
	assertClosureEqual(t, c, snap, "deep child after parent write")

	// Recycle a COW graph as dst of a deep copy; shared sources must
	// survive subsequent writes through the recycled graph.
	rng := rand.New(rand.NewSource(17))
	cowParent := New(6, 6)
	addRandomEdges(cowParent, rng, 6)
	cowChild := cowParent.CloneInto(nil)
	parentSnap := cowSnapshot(cowParent)
	recycled := p.CloneInto(cowChild)
	if recycled.COWEnabled() {
		t.Fatal("deep CloneInto left dst in COW mode")
	}
	addRandomEdges(recycled, rng, 10)
	assertClosureEqual(t, cowParent, parentSnap, "COW parent after deep recycle")
}

// TestDisableCOWAfterNodesPanics pins the must-call-before-growth rule.
func TestDisableCOWAfterNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DisableCOW after AddNodes did not panic")
		}
	}()
	New(3, 3).DisableCOW()
}

// TestCowCountersAccounting checks the telemetry the engines export:
// forks count shared rows, first writes count copies, arenas count bytes.
func TestCowCountersAccounting(t *testing.T) {
	g := New(8, 8)
	fam := g.CowCounters()
	if fam == nil {
		t.Fatal("COW graph has nil family counters")
	}
	if got := fam.SlabBytes.Load(); got <= 0 {
		t.Fatalf("SlabBytes = %d after New, want > 0", got)
	}
	if got := fam.RowsShared.Load(); got != 0 {
		t.Fatalf("RowsShared = %d before any fork", got)
	}

	c := g.CloneInto(nil)
	if got := fam.RowsShared.Load(); got != 4*8 {
		t.Fatalf("RowsShared = %d after fork of 8 nodes, want 32", got)
	}
	if c.CowCounters() != fam {
		t.Fatal("fork is not in the parent's family")
	}

	// Copy counts are buffered per graph; CowCounters flushes them, so
	// reads go through the accessor rather than fam directly.
	base := fam.RowsCopied.Load()
	mustOK(t, c.AddEdge(0, 1, EdgeLocal))
	if got := c.CowCounters().RowsCopied.Load(); got <= base {
		t.Fatalf("RowsCopied = %d after first post-fork write, want > %d", got, base)
	}

	// A write that changes nothing must not copy.
	base = fam.RowsCopied.Load()
	mustOK(t, c.AddOrder(0, 1, EdgeAtomicity)) // already implied
	if got := c.CowCounters().RowsCopied.Load(); got != base {
		t.Fatalf("no-op AddOrder copied rows: %d -> %d", base, got)
	}

	if g.CowCounters() == nil || c.SlabCapBytes() < 0 || g.SlabCapBytes() < 0 {
		t.Fatal("accessor sanity")
	}
	dis := New(0, 4)
	dis.DisableCOW()
	if dis.CowCounters() != nil {
		t.Fatal("non-COW graph reports family counters")
	}
}

// TestCOWChangeLogAcrossForks checks the PR 4 incremental-closure change
// log stays per-graph under row sharing: draining one fork's log must not
// affect its sibling's, and logged growth matches real growth.
func TestCOWChangeLogAcrossForks(t *testing.T) {
	p := New(6, 6)
	p.EnableChangeLog()
	mustOK(t, p.AddEdge(0, 1, EdgeLocal))
	p.DrainChangeLog(nil)

	a := p.CloneInto(nil)
	b := p.CloneInto(nil)
	mustOK(t, a.AddEdge(1, 2, EdgeLocal))
	if a.ChangeLogEmpty() {
		t.Fatal("a's write did not log")
	}
	if !b.ChangeLogEmpty() {
		t.Fatal("a's write leaked into b's change log")
	}
	got := a.DrainChangeLog(nil)
	want := []int{0, 1, 2} // 0 gains descendant 2; 1 and 2 both grow
	for _, v := range want {
		if !got.Has(v) {
			t.Fatalf("change log %v missing %d", got, v)
		}
	}
}
