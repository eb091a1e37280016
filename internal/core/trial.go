package core

// Trial-apply at the state level: resolve a candidate (load, store) pair
// and run the Store Atomicity closure directly on the parent state, then
// roll every side effect back in place. The engine uses this to evaluate
// all sibling children of one quiesced parent against a single graph —
// see graph/trial.go for the slab-level mechanism and enumerate.go for
// the sweep.
//
// Soundness rests on what a trial is allowed to run: resolveLoad plus
// closure, nothing else. Both are node-count-preserving (the graph layer
// panics otherwise), and the parent is at a closure fixpoint when the
// trial begins, so the change log, the membership-dirty set, and the
// closure worklist are all empty — rollback may simply Reset them. The
// eligibility cache is deliberately NOT snapshotted: a trial can only
// move entries to eligStale (via noteResolved and closure invalidation),
// stale entries are always sound (they recompute on demand), and
// eligibleCached is never called mid-trial.

// trialMark snapshots the state-side effects of one trial resolution of
// load lid, for in-place rollback.
type trialMark struct {
	lid int
	ai  int // addr directory index of the load's address
	// node is a full copy of the load's Node: resolveLoad mutates
	// Resolved/Val/Source/DidStore/StoreVal/Bypassed in place.
	node      Node
	pathLen   int
	bypassLen int
	rmwLen    int
	loadsLen  int
	storesLen int
	prepValid bool
}

// beginTrial opens a trial for a resolution of load lid. The caller then
// runs resolveLoadWith + closure and must close the trial with
// rollbackTrial regardless of their outcome.
func (s *state) beginTrial(lid int) trialMark {
	s.g.BeginTrial()
	ai := s.addrIdx(s.nodes[lid].Addr)
	return trialMark{
		lid:       lid,
		ai:        ai,
		node:      s.nodes[lid],
		pathLen:   len(s.path),
		bypassLen: len(s.bypasses),
		rmwLen:    len(s.newRMW),
		loadsLen:  len(s.addrs[ai].loads),
		storesLen: len(s.addrs[ai].stores),
		prepValid: s.prepValid,
	}
}

// rollbackTrial restores the parent to its pre-trial identity.
// materialized says whether the trial state was forked (CloneInto) before
// the rollback — in that case the trial's graph rows now belong to the
// child and the slab cursor is not rewound (graph.RollbackTrial).
func (s *state) rollbackTrial(m trialMark, materialized bool) {
	s.g.RollbackTrial(materialized)
	s.nodes[m.lid] = m.node
	s.path = s.path[:m.pathLen]
	s.bypasses = s.bypasses[:m.bypassLen]
	s.newRMW = s.newRMW[:m.rmwLen]
	ms := &s.addrs[m.ai]
	ms.loads = ms.loads[:m.loadsLen]
	if len(ms.stores) > m.storesLen {
		// The trial resolved a store-effect atomic (DidStore): undo its
		// registration in the per-address store index.
		ms.stores = ms.stores[:m.storesLen]
		clearIn(ms.storeBits, m.lid)
	}
	clearIn(s.resolvedBits, m.lid)
	// Both were empty at the fixpoint the trial started from.
	s.dirty.Reset()
	s.work.Reset()
	s.prepValid = m.prepValid
}

// leafParent reports whether every child of this quiesced state is a
// complete behavior: all threads ran off their programs unblocked and
// exactly one node is unresolved (necessarily the reading node about to
// be resolved — an unresolved non-reading node would imply a second
// unresolved node upstream). Children of a leaf parent need no
// generation, no execution, and no queue round trip: the engine records
// them as finals during the sweep, or elide them entirely when their
// fingerprint is already recorded.
func (s *state) leafParent() bool {
	for ti := range s.threads {
		if s.threads[ti].blocked != NoNode || s.threads[ti].pc < len(s.prog.Threads[ti].Instrs) {
			return false
		}
	}
	unres := 0
	for id := range s.nodes {
		if !s.nodes[id].Resolved {
			if unres++; unres > 1 {
				return false
			}
		}
	}
	return unres == 1
}

// residentBytes is the state's charged footprint while parked on a
// frontier: every slab segment its graph keeps alive plus its mask
// arena. The same measure governs pool admission (statePool.put).
func (s *state) residentBytes() int64 {
	var n int64
	if s.g != nil {
		n = s.g.SlabCapBytes()
	}
	return n + int64(cap(s.maskBuf))*8
}
