package graph

import "sync/atomic"

// Copy-on-write closure sharing. Sibling enumeration states differ in a
// handful of closure rows (the ones dirtied by one source edge and its
// propagation), so forking by deep copy is overwhelmingly redundant. A
// COW graph instead shares desc/anc/succ/pred rows by handle and keeps,
// per row set, a bitmap of the rows this graph may write in place:
//
//   - a row is writable iff its owned bit is set — otherwise the row is
//     frozen and the first write copies it into the writer's slab, updates
//     the handle, and sets the bit;
//   - CloneInto shares every row by handle and then clears the owned
//     bitmaps of BOTH child and parent, freezing the entire row set on
//     both sides. Neither can mutate shared storage after a fork, ever —
//     safety does not depend on the engine's "parents are retired after
//     forking" discipline. (A parent may still bump-allocate new rows at
//     the tail of its current segment: those offsets are beyond every
//     frozen row, so sharers never read them.)
//
// The bitmaps are why forks are cheap: freezing a side is a memclr of
// n/64 words per row set, not a per-row tag rewrite, and a recycled
// destination needs no scrubbing — clearing the bitmap retires whatever
// ownership state its previous incarnation left behind.
//
// Frozen rows are immutable for the rest of their life, which is what
// makes them safe to share across goroutines: a stolen state's shared
// rows were frozen (and fully written) before the state was pushed onto a
// deque, and the deque mutex publishes them to the thief. Rows the writer
// copied after the fork have their owned bit set only in that one graph
// and move with the state — single-owner at every instant.

// CowCounters holds the COW telemetry counters, shared by every graph in
// a fork family (the graphs forked, transitively, from one New root).
// Engines read them at end of run and fold them into the metrics registry
// (graph_cow_rows_shared_total, graph_cow_rows_copied_total,
// graph_slab_bytes_total).
type CowCounters struct {
	// RowsShared counts rows adopted by reference at fork time.
	RowsShared atomic.Int64
	// RowsCopied counts rows copied into a writer's slab on first write.
	RowsCopied atomic.Int64
	// SlabBytes counts bytes allocated to slab arenas, cumulatively.
	SlabBytes atomic.Int64
}

// CowCounters returns the graph's family counters, or nil when COW is
// disabled. Every graph forked from the same root shares one instance.
// The graph's buffered row-copy count is flushed first, so the returned
// counters reflect this graph's work up to the call.
func (g *Graph) CowCounters() *CowCounters {
	if !g.cow {
		return nil
	}
	g.flushCow()
	return g.fam
}

// flushCow folds the buffered row-copy count into the family counters.
// Buffering keeps the COW copy path free of atomic RMWs; the flush points
// (forks, counter reads, recycling) bound the drift to one graph's
// between-forks activity.
func (g *Graph) flushCow() {
	if g.copiedPending != 0 {
		g.fam.RowsCopied.Add(g.copiedPending)
		g.copiedPending = 0
	}
}

// DisableCOW switches the graph to deep-copy Clone/CloneInto semantics,
// the forks of the pre-COW engine that core.EnumerateReference runs as
// the equivalence baseline. It must be called before any node is added.
func (g *Graph) DisableCOW() {
	if g.n > 0 || len(g.succH) > 0 {
		panic("graph: DisableCOW after nodes were added")
	}
	g.cow = false
	g.fam = nil
}

// COWEnabled reports whether the graph shares rows copy-on-write.
func (g *Graph) COWEnabled() bool { return g.cow }

// mutable returns a writable alias of row i, copying a frozen row into
// g's slab and marking it owned on first write. The copy is append-only
// in the slab, so sharers of the old row are untouched.
func (g *Graph) mutable(h []uint64, own Bits, i int) Bits {
	r := g.row(h[i])
	if !g.cow || own.Has(i) {
		return r
	}
	nh, nr := g.take(len(r))
	copy(nr, r)
	if g.trial {
		g.trialUndo = append(g.trialUndo, trialRec{h: h, i: i, old: h[i]})
	}
	h[i] = nh
	own.Set(i)
	g.copiedPending++
	return nr
}

// rowSetChanged sets bit b in row i copy-on-write, reporting whether the
// bit was previously clear. A no-op set never copies the row.
func (g *Graph) rowSetChanged(h []uint64, own Bits, i, b int) bool {
	if g.row(h[i]).Has(b) {
		return false
	}
	g.mutable(h, own, i).Set(b)
	return true
}

// rowOrChanged ORs src into row i copy-on-write, reporting whether any
// bit flipped. Frozen rows are scanned read-only first: closure
// propagation frequently ORs sets the target already contains, and an
// implied OR must not pay for a copy (it is also what keeps the change
// log, and hence the incremental closure, cheap).
func (g *Graph) rowOrChanged(h []uint64, own Bits, i int, src Bits) bool {
	dst := g.row(h[i])
	if !g.cow || own.Has(i) {
		return dst.OrChanged(src)
	}
	if !orWouldChange(dst, src) {
		return false
	}
	nh, nr := g.take(len(dst))
	copy(nr, dst)
	nr.Or(src)
	if g.trial {
		g.trialUndo = append(g.trialUndo, trialRec{h: h, i: i, old: h[i]})
	}
	h[i] = nh
	own.Set(i)
	g.copiedPending++
	return true
}

// orWouldChange reports whether dst |= src would flip any bit. The
// operands have equal width (rows of one graph).
func orWouldChange(dst, src Bits) bool {
	for i := range src {
		if src[i]&^dst[i] != 0 {
			return true
		}
	}
	return false
}

// zeroRow clears row i copy-on-write: an owned row is reset in place, a
// frozen row is replaced with a fresh zero row (cheaper than copy-then-
// clear). RecomputeClosure uses it to rebuild from scratch.
func (g *Graph) zeroRow(h []uint64, own Bits, i int) {
	if !g.cow || own.Has(i) {
		g.row(h[i]).Reset()
		return
	}
	nh, _ := g.takeZeroed(g.rowW)
	if g.trial {
		g.trialUndo = append(g.trialUndo, trialRec{h: h, i: i, old: h[i]})
	}
	h[i] = nh
	own.Set(i)
	g.copiedPending++
}

// freshOwned returns b resized to track capacity rows, zeroed (nothing
// owned). The backing array is reused when large enough.
func freshOwned(b Bits, capacity int) Bits {
	w := rowWords(capacity)
	if cap(b) < w {
		return make(Bits, w)
	}
	b = b[:w]
	b.Reset()
	return b
}

// shareRowsInto copies g's handle arrays into dst (pointer-free
// memmoves) and freezes both sides by clearing both graphs' owned
// bitmaps. Caller is CloneInto, which has already given dst the segment
// list the handles point into.
func (g *Graph) shareRowsInto(dst *Graph) {
	if dst.cow {
		// A recycled destination's buffered copy count belongs to its
		// previous family; settle it before re-parenting.
		dst.flushCow()
	}
	dst.succH = append(dst.succH[:0], g.succH...)
	dst.predH = append(dst.predH[:0], g.predH...)
	dst.descH = append(dst.descH[:0], g.descH...)
	dst.ancH = append(dst.ancH[:0], g.ancH...)
	dst.succOwned = freshOwned(dst.succOwned, g.cap)
	dst.predOwned = freshOwned(dst.predOwned, g.cap)
	dst.descOwned = freshOwned(dst.descOwned, g.cap)
	dst.ancOwned = freshOwned(dst.ancOwned, g.cap)
	g.succOwned.Reset()
	g.predOwned.Reset()
	g.descOwned.Reset()
	g.ancOwned.Reset()
	dst.cow = true
	dst.fam = g.fam
	g.flushCow()
	g.fam.RowsShared.Add(4 * int64(g.n))
}

// scrubCOW strips a recycled destination of every COW artifact before a
// deep copy reuses it. Its segments may be read by other graphs, so they
// are dropped rather than recycled; the handle and bitmap arrays alias
// nothing and keep their capacity.
func (dst *Graph) scrubCOW() {
	dst.flushCow()
	dst.segs = nil
	dst.cur, dst.off = -1, 0
	dst.cow, dst.fam = false, nil
}
