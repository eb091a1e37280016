package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(4, 8)
	if err := g.AddEdge(0, 1, EdgeLocal); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, EdgeLocal); err != nil {
		t.Fatal(err)
	}
	if !g.Before(0, 2) {
		t.Error("transitive 0 @ 2 missing")
	}
	if g.Before(2, 0) {
		t.Error("spurious 2 @ 0")
	}
	if !g.Unordered(0, 3) {
		t.Error("0 and 3 should be unordered")
	}
	if g.Unordered(0, 0) {
		t.Error("a node is not unordered with itself")
	}
}

func TestAddEdgeCycleRejected(t *testing.T) {
	g := New(3, 4)
	mustOK(t, g.AddEdge(0, 1, EdgeLocal))
	mustOK(t, g.AddEdge(1, 2, EdgeLocal))
	if err := g.AddEdge(2, 0, EdgeLocal); err != ErrCycle {
		t.Errorf("cycle insert returned %v", err)
	}
	if err := g.AddEdge(1, 1, EdgeLocal); err != ErrCycle {
		t.Errorf("self loop returned %v", err)
	}
	// Graph must be unchanged after the rejected insert.
	if g.Before(2, 0) {
		t.Error("rejected edge leaked into closure")
	}
	if len(g.Edges()) != 2 {
		t.Errorf("edge list has %d entries, want 2", len(g.Edges()))
	}
}

func TestAddOrderSkipsImplied(t *testing.T) {
	g := New(3, 4)
	mustOK(t, g.AddEdge(0, 1, EdgeLocal))
	mustOK(t, g.AddEdge(1, 2, EdgeLocal))
	mustOK(t, g.AddOrder(0, 2, EdgeAtomicity))
	if len(g.Edges()) != 2 {
		t.Errorf("AddOrder inserted an implied edge; %d edges", len(g.Edges()))
	}
	// AddEdge, by contrast, records the direct edge.
	mustOK(t, g.AddEdge(0, 2, EdgeSource))
	if len(g.Edges()) != 3 {
		t.Errorf("AddEdge skipped a direct edge; %d edges", len(g.Edges()))
	}
}

func TestGrowPreservesClosure(t *testing.T) {
	g := New(2, 2)
	mustOK(t, g.AddEdge(0, 1, EdgeLocal))
	first := g.AddNodes(100) // forces reallocation
	if first != 2 {
		t.Fatalf("first new node = %d", first)
	}
	if !g.Before(0, 1) {
		t.Error("closure lost after growth")
	}
	mustOK(t, g.AddEdge(1, 99, EdgeLocal))
	if !g.Before(0, 99) {
		t.Error("closure broken across grown region")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3, 4)
	mustOK(t, g.AddEdge(0, 1, EdgeLocal))
	c := g.Clone()
	mustOK(t, c.AddEdge(1, 2, EdgeLocal))
	if g.Before(1, 2) {
		t.Error("mutation of clone visible in original")
	}
	if !c.Before(0, 2) {
		t.Error("clone closure wrong")
	}
	// A clone is allocated exactly, so growing it, within its capacity
	// and past it, must reallocate its handle arrays and change log
	// rather than write past them into each other.
	c.EnableChangeLog()
	one := c.AddNodes(1)
	mustOK(t, c.AddEdge(2, one, EdgeLocal))
	first := c.AddNodes(70)
	mustOK(t, c.AddEdge(one, first+69, EdgeLocal))
	want := c.Clone()
	want.RecomputeClosure()
	for i := 0; i < c.Len(); i++ {
		for j := 0; j < c.Len(); j++ {
			if c.Before(i, j) != want.Before(i, j) {
				t.Fatalf("grown clone: Before(%d, %d) = %v, recomputed %v", i, j, c.Before(i, j), want.Before(i, j))
			}
		}
	}
	if !c.Before(0, first+69) || g.Len() != 3 || g.Before(0, 2) {
		t.Error("grown clone lost its closure or reached the original")
	}
}

// TestIncrementalClosureMatchesRecompute is the property test for the
// central data-structure invariant: random DAG insertions maintained
// incrementally agree with a from-scratch recomputation.
func TestIncrementalClosureMatchesRecompute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n, n)
		for tries := 0; tries < 3*n; tries++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			// Keep it acyclic by orienting edges low → high.
			if a > b {
				a, b = b, a
			}
			if err := g.AddEdge(a, b, EdgeLocal); err != nil {
				return false
			}
		}
		want := g.Clone()
		want.RecomputeClosure()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if g.Before(i, j) != want.Before(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestToposortRespectsEdges(t *testing.T) {
	g := New(6, 6)
	edges := [][2]int{{0, 2}, {1, 2}, {2, 3}, {3, 5}, {1, 4}, {4, 5}}
	for _, e := range edges {
		mustOK(t, g.AddEdge(e[0], e[1], EdgeLocal))
	}
	order, err := g.Toposort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int]int{}
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range edges {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("toposort violates %v", e)
		}
	}
}

func TestCountLinearExtensionsKnownValues(t *testing.T) {
	// Empty order on n nodes: n! extensions.
	g := New(4, 4)
	if got := g.CountLinearExtensions(nil); got != 24 {
		t.Errorf("4 free nodes: %d extensions, want 24", got)
	}
	// A chain has exactly one.
	mustOK(t, g.AddEdge(0, 1, EdgeLocal))
	mustOK(t, g.AddEdge(1, 2, EdgeLocal))
	mustOK(t, g.AddEdge(2, 3, EdgeLocal))
	if got := g.CountLinearExtensions(nil); got != 1 {
		t.Errorf("chain: %d extensions, want 1", got)
	}
	// Two independent chains of 2: C(4,2) = 6.
	h := New(4, 4)
	mustOK(t, h.AddEdge(0, 1, EdgeLocal))
	mustOK(t, h.AddEdge(2, 3, EdgeLocal))
	if got := h.CountLinearExtensions(nil); got != 6 {
		t.Errorf("two chains: %d extensions, want 6", got)
	}
}

func TestCountMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		g := New(n, n)
		for tries := 0; tries < n; tries++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a >= b {
				continue
			}
			if err := g.AddEdge(a, b, EdgeLocal); err != nil {
				return false
			}
		}
		var enum uint64
		g.ForEachLinearExtension(nil, func([]int) bool { enum++; return true })
		return enum == g.CountLinearExtensions(nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestForEachLinearExtensionSubset(t *testing.T) {
	g := New(5, 5)
	mustOK(t, g.AddEdge(0, 1, EdgeLocal))
	mustOK(t, g.AddEdge(1, 2, EdgeLocal)) // 0@2 via 1
	// Extensions of {0,2,4}: 0 before 2 (through excluded 1), 4 free: 3.
	var got [][]int
	g.ForEachLinearExtension([]int{0, 2, 4}, func(order []int) bool {
		got = append(got, append([]int(nil), order...))
		return true
	})
	if len(got) != 3 {
		t.Fatalf("%d extensions of subset, want 3: %v", len(got), got)
	}
	for _, o := range got {
		pos := map[int]int{}
		for i, v := range o {
			pos[v] = i
		}
		if pos[0] > pos[2] {
			t.Errorf("subset extension broke ordering through excluded node: %v", o)
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	g := New(4, 4)
	calls := 0
	g.ForEachLinearExtension(nil, func([]int) bool {
		calls++
		return calls < 2
	})
	if calls != 2 {
		t.Errorf("early stop made %d calls", calls)
	}
}

func TestEdgeKindString(t *testing.T) {
	want := map[EdgeKind]string{
		EdgeLocal: "local", EdgeAlias: "alias", EdgeSource: "source", EdgeAtomicity: "atomicity",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d -> %q want %q", k, k.String(), s)
		}
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
