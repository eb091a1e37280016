package graph

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// EdgeKind distinguishes why an edge exists. The paper's Figure 2 legend:
// solid local-ordering edges (≺), ringed observation edges (source), and
// dotted Store Atomicity edges. We also record TSO's grey bypass edges —
// they are *excluded* from the @ order (Section 6) and live outside Graph —
// and alias-check edges separately so the speculation study can drop them.
type EdgeKind uint8

const (
	// EdgeLocal is a ≺ edge from the reordering axioms.
	EdgeLocal EdgeKind = iota
	// EdgeAlias is a ≺ edge required by non-speculative address
	// disambiguation (Section 5.1); speculative models omit these.
	EdgeAlias
	// EdgeSource is an observation edge source(L) → L.
	EdgeSource
	// EdgeAtomicity is a derived edge inserted by the Store Atomicity
	// closure (rules a, b, c of Section 3.3).
	EdgeAtomicity
)

// String implements fmt.Stringer.
func (k EdgeKind) String() string {
	switch k {
	case EdgeLocal:
		return "local"
	case EdgeAlias:
		return "alias"
	case EdgeSource:
		return "source"
	case EdgeAtomicity:
		return "atomicity"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// Edge is a directed, kinded edge between node IDs.
type Edge struct {
	From, To int
	Kind     EdgeKind
}

// ErrCycle is returned when an edge insertion would create a cycle — in the
// framework a cycle means the execution violates the memory model (the
// trigger for speculation rollback).
var ErrCycle = errors.New("graph: edge would create a cycle")

// Graph is a DAG over dense integer node IDs with an incrementally
// maintained strict transitive closure. desc(i) holds every node reachable
// from i by one or more edges; anc(i) holds every node that reaches i.
//
// Rows live in slab segments and are addressed by pointer-free handles
// (slab.go); they are shared copy-on-write between a graph and its
// CloneInto forks by default — see cow.go for the ownership scheme and
// DisableCOW for the deep-copy forks of the reference engine.
//
// The zero value is not usable; call New.
type Graph struct {
	n     int
	cap   int
	rowW  int // uniform row width in words for the current capacity
	edges []Edge
	// segs/cur/off: slab segments and the bump-allocator cursor (slab.go).
	segs [][]uint64
	cur  int
	off  int
	// succH/predH are handles to the direct (non-transitive) adjacency
	// rows; descH/ancH to the strict transitive closure rows. All four are
	// pointer-free so a fork copies them with memmove.
	succH []uint64
	predH []uint64
	descH []uint64
	ancH  []uint64
	// *Owned bitmaps mark, per row set, the rows this graph may write in
	// place; a clear bit means the row is frozen and the first write
	// copies it (cow.go). Unused (empty) when cow is off.
	succOwned Bits
	predOwned Bits
	descOwned Bits
	ancOwned  Bits
	// cow gates row sharing; fam holds the family-wide telemetry
	// counters. copiedPending buffers this graph's row-copy count so the
	// copy hot path stays free of atomics; it is flushed to fam at fork
	// and collection points (flushCow).
	cow           bool
	fam           *CowCounters
	copiedPending int64
	// log, when enabled, accumulates the IDs of nodes whose desc or anc
	// sets grew since the last DrainChangeLog. The Store Atomicity
	// worklist closure keys its re-examination on this set.
	log   Bits
	logOn bool
	// Batched-kernel scratch (batch.go). Not part of the graph's
	// identity: CloneInto leaves the clone's own scratch alone and
	// ensureScratch re-derives it lazily.
	upScratch   Bits
	downScratch Bits
	oneScratch  Bits
	// Trial mode (trial.go): while set, every handle swap performed by
	// the COW write paths is journaled so RollbackTrial can restore the
	// pre-trial view in place, and the slab bump cursor can be rewound.
	trial      bool
	trialUndo  []trialRec
	trialEdges int
	trialSegs  int
	trialCur   int
	trialOff   int
}

// EnableChangeLog turns on closure change tracking: from now on, every
// node whose ancestor or descendant set actually grows is recorded until
// the next DrainChangeLog. Enable before inserting edges; pre-existing
// closure facts are not retroactively logged.
func (g *Graph) EnableChangeLog() {
	g.logOn = true
	g.log = g.log.grow(g.cap)
}

// ChangeLogEnabled reports whether closure change tracking is on.
func (g *Graph) ChangeLogEnabled() bool { return g.logOn }

// DrainChangeLog ORs the set of changed node IDs into dst (growing it as
// needed), clears the log, and returns dst.
func (g *Graph) DrainChangeLog(dst Bits) Bits {
	dst = OrInto(dst, g.log)
	g.log.Reset()
	return dst
}

// ChangeLogEmpty reports whether no closure growth is pending.
func (g *Graph) ChangeLogEmpty() bool { return !g.logOn || g.log.Empty() }

// rowWords is the uniform row width for a capacity.
func rowWords(capacity int) int { return (capacity + 63) / 64 }

// New returns a graph with n nodes and capacity for at least capHint nodes
// (growing beyond the hint reallocates rows). The four handle arrays are
// carved from one allocation sized to the hint, so adding nodes up to it
// never grows them.
func New(n, capHint int) *Graph {
	if capHint < n {
		capHint = n
	}
	g := &Graph{cap: capHint, rowW: rowWords(capHint), cur: -1, cow: true, fam: &CowCounters{}}
	g.succH, g.predH, g.descH, g.ancH = carveHandles(make([]uint64, 4*capHint), capHint)
	g.AddNodes(n)
	return g
}

// carveHandles splits hs into four empty handle arrays of capacity k
// each. The capacities are capped, so an append past k reallocates that
// array alone instead of running into the next one.
func carveHandles(hs []uint64, k int) (succ, pred, desc, anc []uint64) {
	at := func(i int) []uint64 { return hs[i*k : i*k : (i+1)*k] }
	return at(0), at(1), at(2), at(3)
}

// Len returns the current node count.
func (g *Graph) Len() int { return g.n }

// RowWords returns the uniform closure-row width in 64-bit words. The
// enumeration core sizes its node-property masks and scratch buffers to
// it, so they never regrow while the graph stays within capacity.
func (g *Graph) RowWords() int { return g.rowW }

// AddNodes appends k nodes and returns the ID of the first.
func (g *Graph) AddNodes(k int) int {
	if g.trial {
		// Node growth can regrow every row at a new width, which the
		// trial journal does not cover. Trials wrap resolution + closure
		// only — both node-count-preserving.
		panic("graph: AddNodes during trial")
	}
	first := g.n
	g.n += k
	if g.n > g.cap {
		oldW := g.rowW
		g.cap = g.n*2 + 8
		g.rowW = rowWords(g.cap)
		g.regrow(g.succH, oldW)
		g.regrow(g.predH, oldW)
		g.regrow(g.descH, oldW)
		g.regrow(g.ancH, oldW)
		if g.cow {
			// The regrown copies are private, so they are owned no matter
			// what the bitmaps said before the growth.
			g.succOwned = g.succOwned.grow(g.cap)
			g.predOwned = g.predOwned.grow(g.cap)
			g.descOwned = g.descOwned.grow(g.cap)
			g.ancOwned = g.ancOwned.grow(g.cap)
			for i := range g.succH {
				g.succOwned.Set(i)
				g.predOwned.Set(i)
				g.descOwned.Set(i)
				g.ancOwned.Set(i)
			}
		}
	}
	if g.logOn {
		g.log = g.log.grow(g.cap)
	}
	if g.cow {
		g.succOwned = g.succOwned.grow(g.cap)
		g.predOwned = g.predOwned.grow(g.cap)
		g.descOwned = g.descOwned.grow(g.cap)
		g.ancOwned = g.ancOwned.grow(g.cap)
	}
	for i := len(g.succH); i < g.n; i++ {
		h, _ := g.takeZeroed(g.rowW)
		g.succH = append(g.succH, h)
		h, _ = g.takeZeroed(g.rowW)
		g.predH = append(g.predH, h)
		h, _ = g.takeZeroed(g.rowW)
		g.descH = append(g.descH, h)
		h, _ = g.takeZeroed(g.rowW)
		g.ancH = append(g.ancH, h)
		if g.cow {
			g.succOwned.Set(i)
			g.predOwned.Set(i)
			g.descOwned.Set(i)
			g.ancOwned.Set(i)
		}
	}
	return first
}

// regrow re-copies every row of one set to the new width. The copies land
// in g's own segments and are owned afterwards (AddNodes re-marks the
// bitmaps) — the old rows, possibly frozen and shared, stay valid for
// their sharers at the old width.
func (g *Graph) regrow(h []uint64, oldW int) {
	for i := range h {
		old := g.rowAt(h[i], oldW)
		nh, nr := g.take(g.rowW)
		n := copy(nr, old)
		for j := n; j < len(nr); j++ {
			nr[j] = 0
		}
		h[i] = nh
	}
}

// Before reports the strict order a @ b (a reaches b through one or more
// edges).
func (g *Graph) Before(a, b int) bool { return g.row(g.descH[a]).Has(b) }

// HasEdge reports whether a direct edge a→b exists (any kind).
func (g *Graph) HasEdge(a, b int) bool { return g.row(g.succH[a]).Has(b) }

// Desc returns the strict descendant set of a. The caller must not modify
// or retain it across mutations.
func (g *Graph) Desc(a int) Bits { return g.row(g.descH[a]) }

// Anc returns the strict ancestor set of a, with the same aliasing caveat.
func (g *Graph) Anc(a int) Bits { return g.row(g.ancH[a]) }

// Succ returns the direct successor set of a (same caveat).
func (g *Graph) Succ(a int) Bits { return g.row(g.succH[a]) }

// Pred returns the direct predecessor set of a (same caveat).
func (g *Graph) Pred(a int) Bits { return g.row(g.predH[a]) }

// Edges returns the direct edge list in insertion order. Callers must not
// modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// AddEdge inserts a→b of the given kind, updating the closure. It is a
// no-op (returning nil) when the edge already exists directly; a transitive
// ordering does not suppress insertion of a direct edge, because edge kinds
// carry meaning for rendering and dedup. Returns ErrCycle (leaving the
// graph unmodified) when a == b or b already precedes a.
func (g *Graph) AddEdge(a, b int, kind EdgeKind) error {
	if a == b || g.row(g.descH[b]).Has(a) {
		return ErrCycle
	}
	if g.row(g.succH[a]).Has(b) {
		return nil
	}
	g.mutable(g.succH, g.succOwned, a).Set(b)
	g.mutable(g.predH, g.predOwned, b).Set(a)
	g.edges = append(g.edges, Edge{From: a, To: b, Kind: kind})
	if g.row(g.descH[a]).Has(b) {
		return nil // closure already knew a @ b transitively
	}
	// newDesc = {b} ∪ desc(b); propagate to a and every ancestor of a
	// that does not already reach b. newAnc symmetric.
	g.propagate(a, b)
	return nil
}

// AddOrder is AddEdge but treats an already-implied transitive ordering as
// satisfied without inserting a direct edge. The Store Atomicity closure
// uses it: rules only require a @ b, not a specific edge.
func (g *Graph) AddOrder(a, b int, kind EdgeKind) error {
	if a == b || g.row(g.descH[b]).Has(a) {
		return ErrCycle
	}
	if g.row(g.descH[a]).Has(b) {
		return nil
	}
	g.mutable(g.succH, g.succOwned, a).Set(b)
	g.mutable(g.predH, g.predOwned, b).Set(a)
	g.edges = append(g.edges, Edge{From: a, To: b, Kind: kind})
	g.propagate(a, b)
	return nil
}

// propagate folds the new ordering a @ b into the closure. All row writes
// go through the COW helpers, which detect no-op updates before paying for
// a copy — an insertion that was mostly implied stays cheap both for the
// copy budget and for the change-log worklist consumer. Handles are
// re-read after each mutation because a copy-on-write relocates the row.
func (g *Graph) propagate(a, b int) {
	cd := g.rowSetChanged(g.descH, g.descOwned, a, b)
	if g.rowOrChanged(g.descH, g.descOwned, a, g.row(g.descH[b])) {
		cd = true
	}
	if cd && g.logOn {
		g.log.Set(a)
	}
	ca := g.rowSetChanged(g.ancH, g.ancOwned, b, a)
	if g.rowOrChanged(g.ancH, g.ancOwned, b, g.row(g.ancH[a])) {
		ca = true
	}
	if ca && g.logOn {
		g.log.Set(b)
	}
	// Every ancestor p of a gains a's new descendants; every descendant s
	// of b gains b's new ancestors. The loops never write the row they
	// iterate or the row they OR from: the order is strict, so a ∉ anc(a),
	// b ∉ desc(b), and p = b (resp. s = a) would have been a cycle.
	da := g.row(g.descH[a])
	g.row(g.ancH[a]).ForEach(func(p int) bool {
		if g.rowOrChanged(g.descH, g.descOwned, p, da) && g.logOn {
			g.log.Set(p)
		}
		return true
	})
	ab := g.row(g.ancH[b])
	g.row(g.descH[b]).ForEach(func(s int) bool {
		if g.rowOrChanged(g.ancH, g.ancOwned, s, ab) && g.logOn {
			g.log.Set(s)
		}
		return true
	})
}

// WouldCycle reports whether inserting a→b would create a cycle.
func (g *Graph) WouldCycle(a, b int) bool { return a == b || g.row(g.descH[b]).Has(a) }

// Clone returns a deep copy sharing no storage. The clone is a plain
// (non-COW) graph outside any fork family, so it stays valid as a
// snapshot or test oracle no matter what the original does next. The fork
// hot path uses CloneInto instead.
//
// The copy is exact, because the engine records every completed behavior
// as a clone: one arena holds the rows, the four handle arrays and the
// change log, and the edge list is copied to its length. The handle arrays
// and the log are capped (three-index slices), so a later AddNodes on the
// clone reallocates them instead of writing past their part of the arena.
func (g *Graph) Clone() *Graph {
	n, w := g.n, g.rowW
	rows, logW := 4*n*w, len(g.log)
	arena := make([]uint64, rows+4*n+logW)
	c := &Graph{n: n, cap: g.cap, rowW: w, cur: -1, logOn: g.logOn}
	if rows > 0 {
		c.segs = [][]uint64{arena[:rows:rows]}
		c.cur = 0
	}
	succ, pred, desc, anc := carveHandles(arena[rows:rows+4*n], n)
	c.succH = g.deepRowSet(c, succ, g.succH)
	c.predH = g.deepRowSet(c, pred, g.predH)
	c.descH = g.deepRowSet(c, desc, g.descH)
	c.ancH = g.deepRowSet(c, anc, g.ancH)
	c.log = Bits(arena[rows+4*n:])
	copy(c.log, g.log)
	c.edges = make([]Edge, len(g.edges))
	copy(c.edges, g.edges)
	return c
}

// CloneInto forks g into dst. dst may be nil or a retired graph of any
// shape (COW or not, any family).
//
// With COW enabled (the default) this is O(rows-actually-dirtied-later):
// only pointer-free handle and tag arrays are copied (plus one slice
// header per inherited segment); child and parent share every row by
// reference and both are frozen by fresh generations, so the first write
// to any row on either side copies it (cow.go). With COW disabled it is
// the original deep copy, reusing dst's storage where capacities allow.
func (g *Graph) CloneInto(dst *Graph) *Graph {
	if dst == nil {
		dst = &Graph{cur: -1}
	}
	if g.cow {
		// Retain dst's recycled segment — including its bump offset. Rows
		// below the offset may be shared with dst's previous incarnation's
		// children (still live elsewhere in the search), but continuing to
		// allocate *above* it never touches them, exactly as a live parent
		// keeps allocating at its tail after freezing a fork. Preserving
		// the offset instead of resetting it is what lets every pooled
		// recycle reuse its arena: without it, each fork of a recycled
		// state paid a fresh zeroed segment allocation, which profiling
		// showed as the dominant fork cost. (The segment may also appear
		// in g's inherited list if g descends from dst's previous life;
		// that double listing is harmless — only dst appends to it, and
		// only beyond the preserved offset.)
		//
		// Only a segment no longer than slabMinWords, the most a fresh
		// graph's first segment takes, is retained. A segment that filled
		// is followed by one twice its size, so retaining whatever is
		// current would let a pooled graph's arena double over its lives,
		// and every state forked into it would be charged the whole arena
		// against the frontier budget. A longer one is dropped, and the
		// next row copy starts a first segment as a fresh graph would.
		retained, roff := []uint64(nil), 0
		if dst.cur >= 0 && len(dst.segs[dst.cur]) <= slabMinWords {
			retained, roff = dst.segs[dst.cur], dst.off
		}
		dst.segs = append(dst.segs[:0], g.segs...)
		if retained != nil {
			dst.segs = append(dst.segs, retained)
			dst.cur = len(dst.segs) - 1
			dst.off = roff
		} else {
			dst.cur = -1
			dst.off = 0
		}
		dst.n, dst.cap, dst.rowW = g.n, g.cap, g.rowW
		dst.edges = append(dst.edges[:0], g.edges...)
		g.shareRowsInto(dst)
		dst.logOn = g.logOn
		dst.log = CopyInto(dst.log, g.log)
		return dst
	}
	if dst.cow {
		// A COW-mode retiree can't donate segments to a deep copy: other
		// graphs may still read rows in them.
		dst.scrubCOW()
	}
	g.deepRowsInto(dst)
	dst.edges = append(dst.edges[:0], g.edges...)
	dst.logOn = g.logOn
	dst.log = CopyInto(dst.log, g.log)
	return dst
}

// deepRowsInto copies every row of g into a single compact segment owned
// by dst (reused across recycles when large enough) and rewrites dst's
// handle arrays to match. dst comes out a plain non-COW graph.
func (g *Graph) deepRowsInto(dst *Graph) {
	dst.n, dst.cap, dst.rowW = g.n, g.cap, g.rowW
	need := 4 * g.n * g.rowW
	var arena []uint64
	if dst.cur >= 0 && len(dst.segs[dst.cur]) >= need {
		arena = dst.segs[dst.cur]
	} else if need > 0 {
		arena = make([]uint64, need)
	}
	dst.segs = dst.segs[:0]
	if arena != nil {
		dst.segs = append(dst.segs, arena)
		dst.cur = 0
	} else {
		dst.cur = -1
	}
	dst.off = 0
	dst.cow, dst.fam = false, nil
	dst.succH = g.deepRowSet(dst, dst.succH[:0], g.succH)
	dst.predH = g.deepRowSet(dst, dst.predH[:0], g.predH)
	dst.descH = g.deepRowSet(dst, dst.descH[:0], g.descH)
	dst.ancH = g.deepRowSet(dst, dst.ancH[:0], g.ancH)
	dst.succOwned = dst.succOwned[:0]
	dst.predOwned = dst.predOwned[:0]
	dst.descOwned = dst.descOwned[:0]
	dst.ancOwned = dst.ancOwned[:0]
}

// deepRowSet copies one row set of g to dst's tail, appending the new
// handles to out.
func (g *Graph) deepRowSet(dst *Graph, out []uint64, h []uint64) []uint64 {
	for _, hi := range h {
		nh, nr := dst.take(g.rowW)
		copy(nr, g.row(hi))
		out = append(out, nh)
	}
	return out
}

// Unordered reports whether neither a @ b nor b @ a (and a != b): the pair
// may execute in either order.
func (g *Graph) Unordered(a, b int) bool {
	return a != b && !g.row(g.descH[a]).Has(b) && !g.row(g.descH[b]).Has(a)
}

// RecomputeClosure rebuilds desc/anc from the direct edges. It exists as
// the ablation baseline for the incremental maintenance (DESIGN.md) and as
// a validation oracle in tests.
func (g *Graph) RecomputeClosure() {
	for i := 0; i < g.n; i++ {
		g.zeroRow(g.descH, g.descOwned, i)
		g.zeroRow(g.ancH, g.ancOwned, i)
	}
	order, err := g.Toposort()
	if err != nil {
		panic("graph: RecomputeClosure on cyclic graph")
	}
	// zeroRow left every desc/anc row owned, so in-place writes are safe.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		dv := g.row(g.descH[v])
		g.row(g.succH[v]).ForEach(func(s int) bool {
			dv.Set(s)
			dv.Or(g.row(g.descH[s]))
			return true
		})
	}
	for _, v := range order {
		av := g.row(g.ancH[v])
		g.row(g.predH[v]).ForEach(func(p int) bool {
			av.Set(p)
			av.Or(g.row(g.ancH[p]))
			return true
		})
	}
}

// Toposort returns one topological order of all nodes, or an error if the
// direct edges contain a cycle (which AddEdge/AddOrder prevent, so this
// only errors on graphs built by hand for checker tests).
func (g *Graph) Toposort() ([]int, error) {
	indeg := make([]int, g.n)
	for i := 0; i < g.n; i++ {
		indeg[i] = g.row(g.predH[i]).Count()
	}
	queue := make([]int, 0, g.n)
	for i := 0; i < g.n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	out := make([]int, 0, g.n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		out = append(out, v)
		g.row(g.succH[v]).ForEach(func(s int) bool {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
			return true
		})
	}
	if len(out) != g.n {
		return nil, errors.New("graph: cycle detected")
	}
	return out, nil
}

// String renders the edge list for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph n=%d\n", g.n)
	es := append([]Edge(nil), g.edges...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	for _, e := range es {
		fmt.Fprintf(&b, "  %d -> %d (%s)\n", e.From, e.To, e.Kind)
	}
	return b.String()
}
