// Package graph provides the partially ordered execution graphs at the heart
// of the framework: a growable DAG with incrementally maintained transitive
// closure (dense bitsets), cycle detection, topological enumeration, and
// linear-extension counting.
//
// Executions in the paper are partial orders; nearly every rule — the
// candidate-store computation, the three Store Atomicity rules, the
// serializability checks — is phrased as reachability queries, so the
// closure is maintained eagerly: Before(a,b) is O(1).
package graph

import "math/bits"

// Bits is a fixed-capacity bitset over node IDs.
type Bits []uint64

// NewBits returns a bitset able to hold n bits.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Has reports whether bit i is set.
func (b Bits) Has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// Set sets bit i.
func (b Bits) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (b Bits) Clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

// Or sets b |= o. The operands must have equal capacity.
func (b Bits) Or(o Bits) {
	for i := range b {
		b[i] |= o[i]
	}
}

// OrChanged sets b |= o and reports whether any bit of b actually
// flipped. The incremental-closure change log uses it: propagation only
// marks a node dirty when its ancestor/descendant set really grew, so an
// edge insertion that was already transitively implied costs no closure
// re-examination downstream.
func (b Bits) OrChanged(o Bits) bool {
	changed := false
	for i := range b {
		w := b[i] | o[i]
		if w != b[i] {
			b[i] = w
			changed = true
		}
	}
	return changed
}

// OrInto sets dst |= src, growing dst's backing array first when src is
// wider (Or alone requires equal capacity). It returns the destination,
// like append.
func OrInto(dst, src Bits) Bits {
	if len(dst) < len(src) {
		grown := make(Bits, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i := range src {
		dst[i] |= src[i]
	}
	return dst
}

// Grown returns b extended to hold n bits (the exported form of grow,
// for callers outside the package that size worklists to a graph).
func (b Bits) Grown(n int) Bits { return b.grow(n) }

// AndNot sets b &^= o.
func (b Bits) AndNot(o Bits) {
	for i := range b {
		b[i] &^= o[i]
	}
}

// And sets b &= o.
func (b Bits) And(o Bits) {
	for i := range b {
		b[i] &= o[i]
	}
}

// CopyFrom overwrites b with o.
func (b Bits) CopyFrom(o Bits) { copy(b, o) }

// AndTrunc sets b &= o, treating o's missing words as zero (words of b
// past o's width are cleared). The width-tolerant And: state-level masks
// are sized to the IDs they have seen, closure rows to the graph's
// capacity.
func (b Bits) AndTrunc(o Bits) {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		b[i] &= o[i]
	}
	for i := n; i < len(b); i++ {
		b[i] = 0
	}
}

// AndNotTrunc sets b &^= o over the overlapping words (o's missing words
// are zero, so b's tail is untouched).
func (b Bits) AndNotTrunc(o Bits) {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		b[i] &^= o[i]
	}
}

// Intersects reports whether b ∩ o ≠ ∅. Widths may differ; missing words
// are zero.
func (b Bits) Intersects(o Bits) bool {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectsAndNot reports whether (a ∩ b) \ c ≠ ∅ — the one-pass form
// of the closure's "is any member of b that is also under a missing from
// c" tests (e.g. "some reading ancestor is unresolved"). Widths may
// differ; missing words are zero.
func IntersectsAndNot(a, b, c Bits) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		w := a[i] & b[i]
		if w == 0 {
			continue
		}
		if i < len(c) {
			w &^= c[i]
		}
		if w != 0 {
			return true
		}
	}
	return false
}

// Reset clears every bit, keeping the capacity.
func (b Bits) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// CopyInto copies src into dst, reusing dst's backing array when it is
// large enough and reallocating otherwise. It returns the destination —
// the enumeration engine's state pool uses it to recycle closure bitsets
// across forks instead of allocating a fresh Bits per clone.
func CopyInto(dst, src Bits) Bits {
	if cap(dst) < len(src) {
		dst = make(Bits, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// Equal reports whether b and o represent the same set. Widths may
// differ (rows widen when the graph grows); missing words count as zero.
func (b Bits) Equal(o Bits) bool {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if b[i] != o[i] {
			return false
		}
	}
	for i := n; i < len(b); i++ {
		if b[i] != 0 {
			return false
		}
	}
	for i := n; i < len(o); i++ {
		if o[i] != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (b Bits) Clone() Bits {
	c := make(Bits, len(b))
	copy(c, b)
	return c
}

// Count returns the number of set bits.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no bit is set.
func (b Bits) Empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order, stopping if fn
// returns false.
func (b Bits) ForEach(fn func(i int) bool) {
	for wi, w := range b {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if !fn(i) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the set bits in ascending order.
func (b Bits) Slice() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// grow returns b extended to hold n bits, reallocating if needed. Spare
// capacity is reused (the extension words are zeroed — a recycled
// buffer may carry stale bits past len), so bitsets carved from a
// preallocated arena grow in place.
func (b Bits) grow(n int) Bits {
	need := (n + 63) / 64
	if need <= len(b) {
		return b
	}
	if need <= cap(b) {
		nb := b[:need]
		for i := len(b); i < need; i++ {
			nb[i] = 0
		}
		return nb
	}
	nb := make(Bits, need)
	copy(nb, b)
	return nb
}
