package core

// statePool is an explicit free list of retired behavior states. Each
// engine worker owns one, so there is no cross-goroutine synchronization:
// rollbacks, demoted states, fully forked parents and finished states are
// returned to the pool and their buffers (closure bitsets, node slices,
// register files, per-address indexes) are recycled by the next fork. A
// finished state may be returned because finish copies what its Execution
// keeps. A recycled graph keeps its own slab segment only while that is no
// longer than a fresh graph's first one (graph.CloneInto), so a pooled
// state's arena does not grow over its lives.
type statePool struct {
	free []*state
	// limitBytes caps the slab arena a retired state may pin (0 = no
	// cap). poolMax bounds the count of retained states but not their
	// bytes: a pool warmed by a large program would otherwise pin its
	// arenas forever while a smaller program runs. Engines set it from
	// the current program's node bound (slabLimitFor).
	limitBytes int64
	// hits counts gets served from a recycled state, misses gets that
	// found the pool empty (the caller allocates fresh), dropped puts
	// refused because the state's slab exceeded limitBytes. Plain ints —
	// each pool is single-owner — folded into Stats and the telemetry
	// counters at end of run.
	hits    int
	misses  int
	dropped int
}

// poolMax bounds retained states so a deep enumeration cannot pin
// arbitrary memory after its working set shrinks.
const poolMax = 256

// slabLimitFor returns the slab-byte cap for a program bounded at
// maxNodes nodes: ~4x the worst-case footprint of one state's four row
// sets, leaving room for copy churn without letting an oversized retiree
// linger. maxNodes <= 0 disables the cap.
func slabLimitFor(maxNodes int) int64 {
	if maxNodes <= 0 {
		return 0
	}
	words := int64((maxNodes + 63) / 64)
	return 4 * 4 * int64(maxNodes) * words * 8
}

// stateLimitFor is the resident-byte cap for one retired state: the slab
// cap plus the worst-case mask arena (10 fixed slots + one per address,
// addresses bounded by nodes, one bitset word row each). The pool charges
// retirees with state.residentBytes, which measures the same two arenas.
func stateLimitFor(maxNodes int) int64 {
	if maxNodes <= 0 {
		return 0
	}
	words := int64((maxNodes + 63) / 64)
	return slabLimitFor(maxNodes) + (10+int64(maxNodes))*words*8
}

// get returns a retired state to recycle, or nil when the pool is empty.
func (p *statePool) get() *state {
	n := len(p.free)
	if n == 0 {
		p.misses++
		return nil
	}
	p.hits++
	s := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return s
}

// put retires a state for reuse, dropping it when the pool is full or its
// resident arenas (slab + mask arena) outgrew what the current program
// justifies pinning.
func (p *statePool) put(s *state) {
	if s == nil {
		return
	}
	if s.g != nil {
		// Settle the graph's buffered copy-count into the family totals
		// while we still hold the state — a dropped state never flushes
		// again (CowCounters flushes as a side effect).
		s.g.CowCounters()
	}
	if len(p.free) >= poolMax {
		return
	}
	if p.limitBytes > 0 && s.residentBytes() > p.limitBytes {
		p.dropped++
		return
	}
	p.free = append(p.free, s)
}
