package core

import (
	"storeatomicity/internal/graph"
	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
)

// This file implements Section 3.3 (the Store Atomicity property as an
// edge-insertion closure) and Section 4's candidates(L).
//
// The closure adds the minimum @ orderings required by rules a, b, and c,
// iterating until fixpoint because "including a dependency to enforce
// Store Atomicity can expose the need for additional dependencies"
// (Figure 7). A required ordering that contradicts the existing graph
// (a cycle) means the execution is not serializable; enumeration never
// produces one non-speculatively, while speculative resolution uses it as
// the rollback signal.

// closure applies Store Atomicity rules a, b, c to fixpoint. It returns
// errInconsistent if a required ordering would create a cycle.
//
// The default implementation is the worklist closure keyed on the
// graph's change log: each pass re-examines only the rule instances
// whose endpoint ancestor/descendant bitsets (or index membership)
// actually changed since the previous fixpoint. The reference engine
// (EnumerateReference) runs closureFull, the whole-graph fixpoint, which
// is also the property-test oracle.
func (s *state) closure() error {
	if s.g.ChangeLogEnabled() {
		return s.closureIncremental()
	}
	return s.closureFull()
}

// closureFull is the original whole-graph fixpoint: every rules-a/b/c
// instance over the per-address index is re-examined each pass until no
// pass adds an ordering.
//
// The per-address store/load index is maintained incrementally on the
// state (see addrSet) as nodes are generated, gain addresses, and
// resolve, so each closure call starts from the live index instead of
// rescanning every node and rebuilding a map.
func (s *state) closureFull() error {
	s.newRMW = s.newRMW[:0]
	// Read-modify-write atomicity: two atomics that both stored cannot
	// observe the same source — each one's write must directly follow
	// its read in every serialization.
	for ai := range s.addrs {
		ms := &s.addrs[ai]
		for i := 0; i < len(ms.loads); i++ {
			a1 := &s.nodes[ms.loads[i]]
			if a1.Kind != program.KindAtomic || !a1.DidStore {
				continue
			}
			for j := i + 1; j < len(ms.loads); j++ {
				a2 := &s.nodes[ms.loads[j]]
				if a2.Kind == program.KindAtomic && a2.DidStore && a1.Source == a2.Source {
					return errInconsistent
				}
			}
		}
	}

	for {
		changed := false
		for ai := range s.addrs {
			ms := &s.addrs[ai]
			// Rules a and b, per resolved load.
			for _, lid32 := range ms.loads {
				lid := int(lid32)
				src := s.nodes[lid].Source
				for _, sid32 := range ms.stores {
					sid := int(sid32)
					if sid == src || sid == lid {
						continue
					}
					// Rule a: a predecessor store of L is
					// ordered before source(L).
					if s.g.Before(sid, lid) {
						if err := s.addOrder(sid, src, &changed); err != nil {
							return err
						}
					}
					// Rule b: a successor store of
					// source(L) is ordered after L.
					if s.g.Before(src, sid) {
						if err := s.addOrder(lid, sid, &changed); err != nil {
							return err
						}
					}
				}
			}
			// Rule c: mutual ancestors of two loads observing
			// distinct stores precede mutual successors of those
			// stores.
			for i := 0; i < len(ms.loads); i++ {
				for j := i + 1; j < len(ms.loads); j++ {
					l1, l2 := int(ms.loads[i]), int(ms.loads[j])
					s1, s2 := s.nodes[l1].Source, s.nodes[l2].Source
					if s1 == s2 {
						continue
					}
					if err := s.ruleC(l1, l2, s1, s2, &changed); err != nil {
						return err
					}
				}
			}
		}
		if !changed {
			return nil
		}
	}
}

// closureIncremental is the worklist form of the Store Atomicity
// closure. A rule instance can only newly fire when the ancestor or
// descendant set of one of its principal nodes grew (Before is monotone)
// or when a principal is new to the per-address index, so each pass
// re-examines only instances touching the union of the graph's closure
// change log and the state's membership-dirty set. Orderings inserted by
// a pass land in the change log and drive the next pass; the fixpoint is
// reached when the union drains empty. The result is identical to
// closureFull (property-tested against it and RecomputeClosure).
func (s *state) closureIncremental() error {
	// RMW indivisibility, incrementally: only a store-effect atomic
	// resolved since the last closure can create a new conflicting pair,
	// and its partner must be a resolved same-address atomic — which the
	// per-address load index lists.
	for _, aid32 := range s.newRMW {
		a1 := &s.nodes[aid32]
		ai := s.addrIdx(a1.Addr)
		for _, lid32 := range s.addrs[ai].loads {
			if lid32 == aid32 {
				continue
			}
			a2 := &s.nodes[lid32]
			if a2.Kind == program.KindAtomic && a2.DidStore && a2.Source == a1.Source {
				return errInconsistent
			}
		}
	}
	s.newRMW = s.newRMW[:0]

	for {
		s.work = graph.OrInto(s.work, s.dirty)
		s.dirty.Reset()
		s.work = s.g.DrainChangeLog(s.work)
		if s.work.Empty() {
			return nil
		}
		if s.opts.Metrics != nil {
			s.opts.Metrics.WorklistLen.Observe(int64(s.work.Count()))
		}
		s.invalidateElig(s.work)
		w := s.work
		for ai := range s.addrs {
			ms := &s.addrs[ai]
			for _, lid32 := range ms.loads {
				lid := int(lid32)
				src := s.nodes[lid].Source
				// active: the store-effect nodes this pass must test
				// against load lid. A dirty load endpoint re-tests every
				// store; otherwise only the dirty stores.
				active := graph.CopyInto(s.ruleScratch, ms.storeBits)
				s.ruleScratch = active
				if !w.Has(lid) && !w.Has(src) {
					active.AndTrunc(w)
				}
				if active.Empty() {
					continue
				}
				// Rule a, batched: every active store ordered before L
				// must be ordered before source(L). The mask intersects
				// "store at L's address" with anc(L), drops the stores
				// already before source(L), and excludes the principals.
				ra := graph.CopyInto(s.maskScratch, active)
				s.maskScratch = ra
				ra.AndTrunc(s.g.Anc(lid))
				ra.AndNotTrunc(s.g.Anc(src))
				clearIn(ra, src)
				clearIn(ra, lid)
				if !ra.Empty() {
					if _, err := s.g.AddOrderFromSet(ra, src, graph.EdgeAtomicity); err != nil {
						return errInconsistent
					}
				}
				// Rule b, batched: every active store ordered after
				// source(L) must be ordered after L. (source(L) is not in
				// its own strict descendant set, so only L needs
				// excluding.)
				rb := graph.CopyInto(s.maskScratch, active)
				s.maskScratch = rb
				rb.AndTrunc(s.g.Desc(src))
				rb.AndNotTrunc(s.g.Desc(lid))
				clearIn(rb, lid)
				if !rb.Empty() {
					if _, err := s.g.AddOrderToSet(lid, rb, graph.EdgeAtomicity); err != nil {
						return errInconsistent
					}
				}
			}
			for i := 0; i < len(ms.loads); i++ {
				for j := i + 1; j < len(ms.loads); j++ {
					l1, l2 := int(ms.loads[i]), int(ms.loads[j])
					s1, s2 := s.nodes[l1].Source, s.nodes[l2].Source
					if s1 == s2 {
						continue
					}
					if !w.Has(l1) && !w.Has(l2) && !w.Has(s1) && !w.Has(s2) {
						continue
					}
					if err := s.ruleCBatched(l1, l2, s1, s2); err != nil {
						return err
					}
				}
			}
		}
		s.work.Reset()
	}
}

// clearIn clears bit i when it falls inside b's width (a mask sized to
// the store IDs it has seen may be narrower than an arbitrary node ID —
// an out-of-range bit is already clear).
func clearIn(b graph.Bits, i int) {
	if i >= 0 && i>>6 < len(b) {
		b.Clear(i)
	}
}

// eligStale/eligYes/eligNo are eligCache entry states: stale entries are
// recomputed on demand; invalidation writes eligStale.
const (
	eligStale = uint8(iota)
	eligYes
	eligNo
)

// invalidateElig marks every node in the closure worklist stale in the
// eligibility cache (their ancestor sets, and hence eligible(), may have
// changed).
func (s *state) invalidateElig(w graph.Bits) {
	if len(s.eligCache) == 0 {
		return
	}
	w.ForEach(func(id int) bool {
		if id < len(s.eligCache) {
			s.eligCache[id] = eligStale
		}
		return true
	})
}

// noteResolved records a newly resolved node in the resolved mask and
// invalidates the eligibility of every load ordered after it:
// eligible()'s reading-ancestor and operand conditions watch
// resolved-ness upstream.
func (s *state) noteResolved(id int) {
	s.setNodeMask(&s.resolvedBits, id)
	if len(s.eligCache) == 0 {
		return
	}
	s.g.Desc(id).ForEach(func(d int) bool {
		if d < len(s.eligCache) {
			s.eligCache[d] = eligStale
		}
		return true
	})
}

// noteAddrKnown invalidates eligibility affected by a late address
// discovery: the node itself (a load needs its own address) and — for
// stores — every later node of the same thread, whose localPriorStores
// condition watches this store's address.
func (s *state) noteAddrKnown(id int) {
	if len(s.eligCache) == 0 {
		return
	}
	if id < len(s.eligCache) {
		s.eligCache[id] = eligStale
	}
	n := &s.nodes[id]
	if n.Kind != program.KindStore || n.Thread < 0 {
		return
	}
	for _, lid := range s.byThread[n.Thread] {
		if s.nodes[lid].Seq > n.Seq && lid < len(s.eligCache) {
			s.eligCache[lid] = eligStale
		}
	}
}

// eligibleCached is eligible() behind the per-load dirty-bit cache.
// Cache entries survive across quiescence passes and forks; every event
// that can flip eligibility (closure growth, resolutions, address
// discoveries) marks the affected entries stale, so a non-stale entry is
// trustworthy and skips the ancestor walk entirely.
func (s *state) eligibleCached(lid int) bool {
	if !s.g.ChangeLogEnabled() {
		return s.eligible(lid)
	}
	n := &s.nodes[lid]
	if !n.Reads() || n.Resolved {
		return false
	}
	if lid < len(s.eligCache) {
		switch s.eligCache[lid] {
		case eligYes:
			s.countDirtySkip()
			return true
		case eligNo:
			s.countDirtySkip()
			return false
		}
	}
	if len(s.eligCache) < len(s.nodes) {
		for i := len(s.eligCache); i < len(s.nodes); i++ {
			s.eligCache = append(s.eligCache, eligStale)
		}
	}
	ok := s.eligible(lid)
	if ok {
		s.eligCache[lid] = eligYes
	} else {
		s.eligCache[lid] = eligNo
	}
	return ok
}

func (s *state) countDirtySkip() {
	if s.opts.Metrics != nil {
		s.opts.Metrics.DirtySkips.Inc(s.shard)
	}
}

// addOrder requires a @ b, translating a cycle into errInconsistent.
func (s *state) addOrder(a, b int, changed *bool) error {
	if s.g.Before(a, b) {
		return nil
	}
	if err := s.g.AddOrder(a, b, graph.EdgeAtomicity); err != nil {
		return errInconsistent
	}
	*changed = true
	return nil
}

// ruleCBatched is ruleC through the graph's batched kernel: the
// commonAnc × commonDesc requirement is one AddOrderSet call, whose
// cycle check also covers the a == b overlap (a node that is both a
// mutual ancestor and a mutual descendant). Used by the incremental
// closure; closureFull keeps the pairwise ruleC below as the
// independently coded oracle.
func (s *state) ruleCBatched(l1, l2, s1, s2 int) error {
	commonAnc := graph.CopyInto(s.ancScratch, s.g.Anc(l1))
	s.ancScratch = commonAnc
	commonAnc.And(s.g.Anc(l2))
	if commonAnc.Empty() {
		return nil
	}
	commonDesc := graph.CopyInto(s.descScratch, s.g.Desc(s1))
	s.descScratch = commonDesc
	commonDesc.And(s.g.Desc(s2))
	if commonDesc.Empty() {
		return nil
	}
	if _, err := s.g.AddOrderSet(commonAnc, commonDesc, graph.EdgeAtomicity); err != nil {
		return errInconsistent
	}
	return nil
}

// ruleC inserts A @ B for every mutual strict ancestor A of loads l1, l2
// and mutual strict descendant B of their (distinct) sources. The
// intersection bitsets are computed into per-state scratch buffers —
// this runs inside the closure fixpoint, once per load pair per pass.
func (s *state) ruleC(l1, l2, s1, s2 int, changed *bool) error {
	commonAnc := graph.CopyInto(s.ancScratch, s.g.Anc(l1))
	s.ancScratch = commonAnc
	commonAnc.And(s.g.Anc(l2))
	if commonAnc.Empty() {
		return nil
	}
	commonDesc := graph.CopyInto(s.descScratch, s.g.Desc(s1))
	s.descScratch = commonDesc
	commonDesc.And(s.g.Desc(s2))
	if commonDesc.Empty() {
		return nil
	}
	var outer error
	commonAnc.ForEach(func(a int) bool {
		da := s.g.Desc(a)
		bad := false
		commonDesc.ForEach(func(b int) bool {
			if a == b {
				outer = errInconsistent
				bad = true
				return false
			}
			if !da.Has(b) {
				if err := s.addOrder(a, b, changed); err != nil {
					outer = err
					bad = true
					return false
				}
			}
			return true
		})
		return !bad
	})
	return outer
}

// eligible reports whether unresolved load L may be resolved now: its
// address is known, every predecessor Load (L0 @ L) is resolved (Section
// 4: resolving out of order could retroactively invalidate a predecessor's
// candidate set), and — under a bypass policy — every program-order-earlier
// local store knows its address, so the bypass/ordering split of Section 6
// is decidable.
//
// The predecessor condition is the word test anc(L) ∩ reads ∖ resolved =
// ∅ over the node-property masks — no per-ancestor probing.
func (s *state) eligible(lid int) bool {
	l := &s.nodes[lid]
	if !l.Reads() || l.Resolved || !l.AddrKnown {
		return false
	}
	// An atomic's operand must be available so its store half is
	// computable at resolution.
	if l.Kind == program.KindAtomic && l.valDep != NoNode && !s.nodes[l.valDep].Resolved {
		return false
	}
	if graph.IntersectsAndNot(s.g.Anc(lid), s.readsBits, s.resolvedBits) {
		return false
	}
	for _, sid := range s.localPriorStores(lid, false) {
		if !s.nodes[sid].AddrKnown {
			return false
		}
	}
	return true
}

// localPriorStores returns same-thread stores that precede load lid in
// program order and fall under a Bypass table cell. With sameAddrOnly the
// list is filtered to stores matching the load's address.
func (s *state) localPriorStores(lid int, sameAddrOnly bool) []int {
	l := &s.nodes[lid]
	if l.Thread < 0 {
		return nil
	}
	var out []int
	for _, id := range s.byThread[l.Thread] {
		n := &s.nodes[id]
		if n.Seq >= l.Seq {
			break
		}
		if n.Kind != program.KindStore {
			continue
		}
		if s.pol.Require(program.KindStore, program.KindLoad) != order.Bypass {
			continue
		}
		if sameAddrOnly && (!n.AddrKnown || n.Addr != l.Addr) {
			continue
		}
		out = append(out, id)
	}
	return out
}

// candidates computes candidates(L) per Section 4:
//
//  1. every Load and Store preceding S in @ is resolved;
//  2. S has not certainly been overwritten: no same-address S0 with
//     S @ S0 @ L;
//
// plus the structural requirements that S is itself resolved with a known
// matching address and is not ordered after L.
//
// The default evaluator prices the whole per-address store set at once
// over the node-property masks (candidatesWords); the reference engine
// keeps the per-store probing scan, so the fuzz differential exercises
// genuinely independent candidate code. The two return the same set —
// word order is ascending node ID, the scan's is index insertion order,
// and every consumer treats the slice as a set.
func (s *state) candidates(lid int) []int {
	if s.g.ChangeLogEnabled() {
		return s.candidatesWords(lid)
	}
	return s.candidatesScan(lid)
}

// candidatesWords is the word-level candidates(L): the structural
// conditions (resolved, not after L, not behind the last local
// same-address store) are three mask operations on the address's store
// bitset, and the per-survivor conditions are one-pass intersections of
// closure rows with the property masks.
func (s *state) candidatesWords(lid int) []int {
	l := &s.nodes[lid]
	lastLocal := NoNode
	if locals := s.localPriorStores(lid, true); len(locals) > 0 {
		lastLocal = locals[len(locals)-1]
	}
	out := s.candScratch[:0]
	defer func() { s.candScratch = out[:0] }()
	ai := s.addrIdx(l.Addr)
	if ai < 0 {
		return nil
	}
	cand := graph.CopyInto(s.candMask, s.addrs[ai].storeBits)
	s.candMask = cand
	cand.AndTrunc(s.resolvedBits)   // S resolved
	clearIn(cand, lid)              // S ≠ L
	cand.AndNotTrunc(s.g.Desc(lid)) // not L @ S: observing the future is a cycle
	if lastLocal != NoNode {
		// Under a bypass policy (Section 6), resolving L orders every
		// non-source prior local same-address store before L; any
		// candidate already ordered before the latest such store is
		// certainly overwritten — except that store itself (the bypass),
		// which its own strict ancestor set does not contain.
		cand.AndNotTrunc(s.g.Anc(lastLocal))
	}
	if cand.Empty() {
		return out
	}
	// Overwrite witnesses: S is overwritten for L iff some same-address
	// store sits in desc(S) ∩ anc(L). The right-hand side is one mask
	// per load, shared by every surviving candidate.
	ow := graph.CopyInto(s.owScratch, s.addrs[ai].storeBits)
	s.owScratch = ow
	ow.AndTrunc(s.g.Anc(lid))
	cand.ForEach(func(sid int) bool {
		// Condition 1: every memory ancestor of S is resolved.
		if graph.IntersectsAndNot(s.g.Anc(sid), s.memBits, s.resolvedBits) {
			return true
		}
		// Condition 2: no overwrite witness.
		if s.g.Desc(sid).Intersects(ow) {
			return true
		}
		// RMW atomicity (see closure): a store-effect resolution may
		// not share its source with another atomic that stored.
		if l.Kind == program.KindAtomic && s.wouldStore(lid, s.nodes[sid].StoredValue()) && s.sourceTakenByRMW(sid, lid) {
			return true
		}
		out = append(out, sid)
		return true
	})
	if dedupCollisionCheck {
		// Checked builds hand every caller an independent copy: the
		// scratch-returning fast path is correct only while callers
		// consume the slice before the next candidates() call on this
		// state, and the copy makes any aliasing bug visible as a test
		// diff instead of silent corruption.
		return append([]int(nil), out...)
	}
	return out
}

// candidatesScan is the original per-store probing evaluator (see
// candidates for when it runs).
func (s *state) candidatesScan(lid int) []int {
	l := &s.nodes[lid]
	lastLocal := NoNode
	if locals := s.localPriorStores(lid, true); len(locals) > 0 {
		lastLocal = locals[len(locals)-1]
	}
	// The result is built in per-state scratch (candidates are consumed
	// before the next call on this state). The per-address index lists
	// exactly the store-effect nodes with the load's address, so only
	// value resolution remains to check.
	out := s.candScratch[:0]
	defer func() { s.candScratch = out[:0] }()
	ai := s.addrIdx(l.Addr)
	if ai < 0 {
		return nil
	}
	for _, sid32 := range s.addrs[ai].stores {
		sid := int(sid32)
		sn := &s.nodes[sid]
		if sid == lid || !sn.Resolved {
			continue
		}
		if s.g.Before(lid, sid) {
			continue // L @ S: observing the future is a cycle
		}
		if lastLocal != NoNode && sid != lastLocal && s.g.Before(sid, lastLocal) {
			continue
		}
		if !s.priorsResolved(sid) {
			continue
		}
		if s.overwrittenFor(sid, lid) {
			continue
		}
		if l.Kind == program.KindAtomic && s.wouldStore(lid, sn.StoredValue()) && s.sourceTakenByRMW(sid, lid) {
			continue
		}
		out = append(out, sid)
	}
	if dedupCollisionCheck {
		return append([]int(nil), out...)
	}
	return out
}

// wouldStore reports whether resolving atomic lid against the given read
// value triggers its store half.
func (s *state) wouldStore(lid int, read program.Value) bool {
	l := &s.nodes[lid]
	switch l.instr.Atomic {
	case program.AtomicCAS:
		return read == l.instr.Expect
	default:
		return true
	}
}

// sourceTakenByRMW reports whether a resolved store-effect atomic other
// than lid already observes sid. Such an atomic reads sid's address, so
// it appears in that address's resolved-load index.
func (s *state) sourceTakenByRMW(sid, lid int) bool {
	ai := s.addrIdx(s.nodes[sid].Addr)
	if ai < 0 {
		return false
	}
	for _, aid32 := range s.addrs[ai].loads {
		aid := int(aid32)
		a := &s.nodes[aid]
		if aid != lid && a.Kind == program.KindAtomic && a.DidStore && a.Source == sid {
			return true
		}
	}
	return false
}

// priorsResolved reports whether every memory node preceding sid in @ is
// resolved (candidate condition 1).
func (s *state) priorsResolved(sid int) bool {
	ok := true
	s.g.Anc(sid).ForEach(func(a int) bool {
		n := &s.nodes[a]
		if n.IsMemory() && !n.Resolved {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// overwrittenFor reports whether some same-address store S0 satisfies
// S @ S0 @ L (candidate condition 2).
func (s *state) overwrittenFor(sid, lid int) bool {
	addr := s.nodes[sid].Addr
	found := false
	s.g.Desc(sid).ForEach(func(mid int) bool {
		n := &s.nodes[mid]
		if n.StoreEffect() && n.AddrKnown && n.Addr == addr && s.g.Before(mid, lid) {
			found = true
			return false
		}
		return true
	})
	return found
}

// resolveLoad assigns source(L) = S on this state (Section 4.1 step 3),
// inserting the observation edge — or, under TSO bypass, recording the
// grey non-@ observation and ordering L after every *other*
// program-order-earlier local store to the same address ("S ̸@ L when
// S = source(L) and S ≺ L otherwise"). The caller runs the closure.
func (s *state) resolveLoad(lid, sid int) error {
	return s.resolveLoadWith(lid, sid, s.localPriorStores(lid, true))
}

// resolveLoadWith is resolveLoad with the load's prior-local-store list
// precomputed. The list depends only on generated nodes and known
// addresses — both constant across sibling resolutions of one load — so
// the candidate sweep computes it once per load instead of once per
// (load, store) trial.
func (s *state) resolveLoadWith(lid, sid int, locals []int) error {
	s.prepValid = false // the resolved-pair cache no longer matches
	s.path = append(s.path, PathStep{
		Load: lid, Store: sid,
		LoadLabel: s.nodes[lid].Label, StoreLabel: s.nodes[sid].Label,
	})
	l := &s.nodes[lid]
	l.Resolved = true
	l.Val = s.nodes[sid].StoredValue()
	l.Source = sid
	s.noteLoad(lid, l.Addr)
	if l.Kind == program.KindAtomic {
		operand := l.instr.ValConst
		if l.valDep != NoNode {
			operand = s.nodes[l.valDep].Val
		}
		switch l.instr.Atomic {
		case program.AtomicCAS:
			if l.Val == l.instr.Expect {
				l.DidStore, l.StoreVal = true, operand
			}
		case program.AtomicSwap:
			l.DidStore, l.StoreVal = true, operand
		case program.AtomicAdd:
			l.DidStore, l.StoreVal = true, l.Val+operand
		}
		if l.DidStore {
			// The atomic's store half took effect: it now counts as a
			// store-effect node in the per-address index.
			s.noteStore(lid, l.Addr)
			s.newRMW = append(s.newRMW, int32(lid))
		}
	}
	s.noteResolved(lid)
	bypass := false
	for _, loc := range locals {
		if loc == sid {
			bypass = true
			break
		}
	}
	if bypass {
		l.Bypassed = true
		s.bypasses = append(s.bypasses, [2]int{sid, lid})
	} else {
		if err := s.g.AddEdge(sid, lid, graph.EdgeSource); err != nil {
			return errInconsistent
		}
	}
	for _, loc := range locals {
		if loc == sid {
			continue
		}
		if err := s.g.AddEdge(loc, lid, graph.EdgeLocal); err != nil {
			return errInconsistent
		}
	}
	return nil
}
