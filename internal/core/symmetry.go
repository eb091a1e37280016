package core

import (
	"fmt"
	"strconv"

	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
)

// Symmetry reduction over enumeration states. A program automorphism
// (internal/program.Automorphisms) maps runs to runs: permuting which
// thread is which and which address is which turns any execution into
// another legal execution of the same program. The engine exploits this
// by deduplicating states under a canonical representative — the minimal
// Load–Store-graph key over the automorphism group — so only one member
// of each state orbit is explored, and by reconstructing the pruned
// orbit members from the explored representatives once a run completes
// (replaying permuted resolution paths). The final behavior set is
// bit-identical to the reference engine's; property tests enforce it.
//
// The mechanism hinges on node-ID reconstruction: node IDs are assigned
// in (epoch, class, thread, seq)-lexicographic order — initializing
// stores in ascending address order, then the start barrier, then each
// generate() pass's thread nodes in (thread, seq) order — and an
// automorphism permutes exactly the (thread, address) coordinates of
// that order. Sorting the permuted coordinates therefore recovers the
// node IDs the permuted run would assign, without simulating it.

// symPerm is one automorphism in engine form.
type symPerm struct {
	threads []int
	addrTo  map[program.Addr]program.Addr
}

// symmetry is a program's detected automorphism group (minus identity)
// plus the address ranking that fixes initializing-store ID order.
type symmetry struct {
	addrRank map[program.Addr]int
	perms    []symPerm
}

// detectSymmetry builds the engine-side symmetry description, or nil
// when the program has none.
func detectSymmetry(p *program.Program) *symmetry {
	ams := program.Automorphisms(p)
	if len(ams) == 0 {
		return nil
	}
	addrs := p.Addresses()
	rank := make(map[program.Addr]int, len(addrs))
	for i, a := range addrs {
		rank[a] = i
	}
	sym := &symmetry{addrRank: rank}
	for _, am := range ams {
		sym.perms = append(sym.perms, symPerm{threads: am.Threads, addrTo: am.Addrs})
	}
	return sym
}

// symImageNodes computes, for every node of a run, the ID its image
// holds in the permuted run. Each node's permuted sort coordinate is
// packed into one uint64 — epoch, then class (init store / start
// barrier / thread node), then the permuted thread or address rank,
// then the dynamic sequence number — and sorting the packed keys yields
// the permuted run's ID assignment. The scratch slices are returned for
// reuse; img is the result, indexed by original node ID.
func symImageNodes(nodes []Node, sym *symmetry, sp *symPerm, keys []uint64, ids, img []int32) ([]uint64, []int32, []int32) {
	n := len(nodes)
	keys = keys[:0]
	for id := 0; id < n; id++ {
		nd := &nodes[id]
		var k uint64
		switch {
		case nd.Thread >= 0:
			k = uint64(nd.epoch)<<44 | 2<<42 | uint64(sp.threads[nd.Thread])<<21 | uint64(nd.Seq)
		case nd.Kind == program.KindStore:
			// Initializing store: epoch 0, before the start barrier,
			// ordered by (permuted) address rank. Register-indirect
			// addressing is rejected at detection time, so every
			// initializing store is static and the ranking is total.
			k = uint64(sym.addrRank[sp.addrTo[nd.Addr]]) << 21
		default:
			// The start barrier sits between the initializing stores
			// and every thread node.
			k = 1 << 42
		}
		keys = append(keys, k)
	}
	ids = ids[:0]
	for i := 0; i < n; i++ {
		ids = append(ids, int32(i))
	}
	// Insertion sort instead of sort.Slice: node counts are small, the
	// permuted order is mostly runs of already-sorted blocks, and the
	// engine calls this on every popped state — the reflection and
	// closure allocations of sort.Slice are measurable there.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && keys[ids[j]] < keys[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	if cap(img) < n {
		img = make([]int32, n)
	}
	img = img[:n]
	for pos, id := range ids {
		img[id] = int32(pos)
	}
	return keys, ids, img
}

// prepDedup caches the dedup-key ingredients of a quiesced state: the
// resolved (load, source) pairs in ascending load order and, when
// symmetry is on, every automorphism's image-ID map plus the pairs
// mapped through it, kept sorted by (image) load ID. childKey builds
// the cache on first use and derives each would-be child's key from it
// without forking. The cache describes the state as of the call, so it
// must never be valid on a state that is still to quiesce: prepValid is
// false on every popped state because fork, replayPath (a fresh state)
// and resolveLoadWith clear it, and nothing calls prepDedup before
// quiescence. A trial restores the parent's flag on rollback.
func (s *state) prepDedup(sym *symmetry) {
	s.prepPairs = s.prepPairs[:0]
	for id := range s.nodes {
		n := &s.nodes[id]
		if n.Reads() && n.Resolved {
			s.prepPairs = append(s.prepPairs, [2]int32{int32(id), int32(n.Source)})
		}
	}
	if sym != nil {
		for len(s.prepPermImg) < len(sym.perms) {
			s.prepPermImg = append(s.prepPermImg, nil)
		}
		for len(s.prepPermPairs) < len(sym.perms) {
			s.prepPermPairs = append(s.prepPermPairs, nil)
		}
		for i := range sym.perms {
			s.symKeys, s.symIDs, s.prepPermImg[i] =
				symImageNodes(s.nodes, sym, &sym.perms[i], s.symKeys, s.symIDs, s.prepPermImg[i])
			img := s.prepPermImg[i]
			pp := s.prepPermPairs[i][:0]
			for _, pr := range s.prepPairs {
				pp = append(pp, [2]int32{img[pr[0]], img[pr[1]]})
			}
			// Image load IDs are unique (img is a bijection), so sorting
			// by the first coordinate alone is total.
			for j := 1; j < len(pp); j++ {
				for k := j; k > 0 && pp[k][0] < pp[k-1][0]; k-- {
					pp[k], pp[k-1] = pp[k-1], pp[k]
				}
			}
			s.prepPermPairs[i] = pp
		}
	}
	s.prepValid = true
}

// hashPairsPlus hashes a Load–Store-graph key — node count then sorted
// (load, source) pairs — with one extra pair (l, src) merge-inserted at
// its sorted position: the child-key hash, computed without
// materializing the child's pair list. It is exactly the fingerprint()
// format, so plain, permuted, and child keys all land in one comparable
// key space.
func hashPairsPlus(n int, pairs [][2]int32, l, src int32) uint64 {
	h := fnvMix(fnvOffset64, uint64(n))
	inserted := false
	for _, pr := range pairs {
		if !inserted && l < pr[0] {
			h = fnvMix(h, uint64(uint32(l))<<32|uint64(uint32(src)))
			inserted = true
		}
		h = fnvMix(h, uint64(uint32(pr[0]))<<32|uint64(uint32(pr[1])))
	}
	if !inserted {
		h = fnvMix(h, uint64(uint32(l))<<32|uint64(uint32(src)))
	}
	return h
}

// sigPairsPlus renders hashPairsPlus's key in the signature() string
// format.
func sigPairsPlus(n int, pairs [][2]int32, l, src int32) string {
	b := make([]byte, 0, 8*len(pairs)+16)
	b = append(b, 'n')
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, '|')
	appendPair := func(pr [2]int32) {
		b = strconv.AppendInt(b, int64(pr[0]), 10)
		b = append(b, '<')
		b = strconv.AppendInt(b, int64(pr[1]), 10)
		b = append(b, ';')
	}
	inserted := false
	for _, pr := range pairs {
		if !inserted && l < pr[0] {
			appendPair([2]int32{l, src})
			inserted = true
		}
		appendPair(pr)
	}
	if !inserted {
		appendPair([2]int32{l, src})
	}
	return string(b)
}

// childKey computes the canonical dedup key of the child produced by
// resolving load lid from store src, without forking: its plain
// Load–Store-graph key when sym is nil, otherwise the minimum over the
// automorphism group (identity included). Orbit members share an orbit
// of keys (group property), so they share the canonical key. symHit
// reports whether a non-identity image supplied the minimum, i.e.
// whether a match on this key is attributable to symmetry rather than
// plain prefix convergence. Load Resolution adds no nodes (nodes are
// created only by generation) and touches none of the (epoch, class,
// thread, seq) coordinates node IDs sort by, so the child's key is the
// parent's with one more (load, source) pair and the parent's image maps
// apply unchanged. The engine checks this key against the seen-set
// before paying for the clone; it is the engine's one dedup point. The
// first call on a state builds its pair cache (prepDedup).
func (s *state) childKey(sym *symmetry, lid, src int, useString bool) (h uint64, sig string, symHit bool) {
	if !s.prepValid {
		s.prepDedup(sym)
	}
	needSig := useString || dedupCollisionCheck
	n := len(s.nodes)
	h = hashPairsPlus(n, s.prepPairs, int32(lid), int32(src))
	if needSig {
		sig = sigPairsPlus(n, s.prepPairs, int32(lid), int32(src))
	}
	if sym == nil {
		return h, sig, false
	}
	for i := range sym.perms {
		img := s.prepPermImg[i]
		ph := hashPairsPlus(n, s.prepPermPairs[i], img[lid], img[src])
		var psig string
		if needSig {
			psig = sigPairsPlus(n, s.prepPermPairs[i], img[lid], img[src])
		}
		var better bool
		if useString {
			better = psig < sig
		} else {
			better = ph < h
		}
		if better {
			h, sig, symHit = ph, psig, true
		}
	}
	return h, sig, symHit
}

// expandSymmetry reconstructs the orbits of the base executions under
// the automorphism group: each base execution's resolution path is
// mapped through every automorphism's image-ID map and replayed from
// the root, and the resulting final state is handed to insert (which
// dedups by plain fingerprint and records new behaviors). One pass over
// the pre-expansion set suffices — the group is closed under
// composition, so every orbit member is one application away from any
// representative. The permuted PathSteps carry no labels: labels name
// the original thread's instructions and replayPath skips the staleness
// cross-check for empty labels.
func expandSymmetry(p *program.Program, pol order.Policy, opts Options, sym *symmetry, base []*Execution, insert func(*state)) error {
	var keys []uint64
	var ids, img []int32
	for _, e := range base {
		for i := range sym.perms {
			keys, ids, img = symImageNodes(e.Nodes, sym, &sym.perms[i], keys, ids, img)
			steps := make([]PathStep, len(e.Path))
			for j, st := range e.Path {
				steps[j] = PathStep{Load: int(img[st.Load]), Store: int(img[st.Store])}
			}
			ns, err := replayCompleted(p, pol, opts, steps)
			if err != nil {
				return fmt.Errorf("core: symmetry orbit replay: %w", err)
			}
			insert(ns)
		}
	}
	return nil
}
