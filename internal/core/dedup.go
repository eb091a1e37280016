package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Load–Store-graph dedup keys (Section 4.1). The enumeration engine keys
// behaviors by a 64-bit FNV-1a fingerprint of the canonical Load–Store
// graph encoding — node count plus the resolved (load, source) pairs in
// ascending node order — instead of a formatted string. A fingerprint
// collision would silently merge two distinct behaviors; the encoded key
// space is tiny (node IDs and sources are small dense ints) so collisions
// are vanishingly unlikely, and `go test -tags dedupcheck` re-runs the
// suite with a cross-check that panics if a collision ever occurs. The
// string signature also remains available as a baseline for the dedup
// property tests (Options.dedupString).

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// fnvPrime64x4 is fnvPrime64⁴ mod 2⁶⁴: FNV-1a's step over a zero
	// byte is a bare multiply, so a byte followed by three zero bytes
	// folds in one xor and this multiply.
	fnvPrime64x4 = 11527715348014283921
)

// fnvMix folds one 64-bit word into an FNV-1a hash, byte by byte. Every
// (id, source) pair word and every byte that fingerprinting feeds it has
// only bytes 0 and 4 set; those take the two-step path, which computes
// the same value as the byte loop.
func fnvMix(h, v uint64) uint64 {
	if v&0xffffff00_ffffff00 == 0 {
		h = (h ^ v&0xff) * fnvPrime64x4
		return (h ^ v>>32) * fnvPrime64x4
	}
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// fingerprintNodes hashes the Load–Store-graph key of a node slice: the
// node count, then each resolved reading node's (id, source) pair. It is
// shared by state.fingerprint and Execution.Fingerprint — for a completed
// behavior the two coincide.
func fingerprintNodes(nodes []Node) uint64 {
	h := fnvMix(fnvOffset64, uint64(len(nodes)))
	for id := range nodes {
		n := &nodes[id]
		if n.Reads() && n.Resolved {
			h = fnvMix(h, uint64(uint32(id))<<32|uint64(uint32(n.Source)))
		}
	}
	return h
}

// shardedSet is the engine's Load–Store-graph key set: the seen-set, and
// (recording executions) the completed-behavior set. It is split into a
// power of two of shards, each under its own mutex, so workers rarely
// contend: one shard at width 1, dedupShards above. Keys are fingerprints
// in the shards' maps; with Options.dedupString they are the string
// signatures instead (the property-test oracle); under the dedupcheck build
// tag a signature guard cross-checks fingerprints and panics on a
// collision. A spill budget makes the maps the hot tier of one
// RAM-bounded set, whose cold tier is one spillStore under the whole
// budget (see dedupspill.go).
// Signature-keyed sets still pick the shard by fingerprint, which is a
// function of the signature.
type shardedSet struct {
	shards    []keyShard
	one       [1]keyShard // backs shards at width 1: no allocation per run
	mask      uint64
	useString bool
	// cold is a budgeted set's cold tier, nil otherwise. flushMu
	// serializes spill.
	cold    *spillStore
	flushMu sync.Mutex
}

// keyShard is one shard; execs holds the executions recorded into it,
// and blockBuf is its buffer for reading run blocks on a cold probe.
type keyShard struct {
	mu       sync.Mutex
	seen     map[uint64]struct{}
	strs     map[string]struct{}
	guard    map[uint64]string
	execs    []recorded
	blockBuf []byte
}

// recorded is an execution with the fingerprint it was recorded under.
type recorded struct {
	h uint64
	x *Execution
}

// dedupShards is the shard count above width 1; 64 keeps lock contention
// negligible at any realistic worker count.
const dedupShards = 64

// init sizes the set for an engine of the given width. A positive budget
// bounds the whole set, at every width.
func (k *shardedSet) init(workers int, opts Options, budget int64) {
	k.shards = k.one[:]
	if workers > 1 {
		k.shards = make([]keyShard, dedupShards)
	}
	k.mask = uint64(len(k.shards) - 1)
	k.useString = opts.dedupString
	if budget > 0 && !k.useString {
		k.cold = newSpillStore(budget, opts.Metrics, opts.Journal)
	}
}

// lock returns h's shard, locked and initialized; the caller unlocks it,
// with unlock if it may have added a key.
func (k *shardedSet) lock(h uint64) *keyShard {
	sh := &k.shards[h&k.mask]
	sh.mu.Lock()
	switch {
	case sh.seen != nil || sh.strs != nil:
	case k.useString:
		sh.strs = map[string]struct{}{}
	default:
		sh.seen = map[uint64]struct{}{}
	}
	if dedupCollisionCheck && sh.guard == nil && !k.useString {
		sh.guard = map[uint64]string{}
	}
	return sh
}

// unlock releases sh, and then flushes the hot tier if it is full.
func (k *shardedSet) unlock(sh *keyShard) {
	full := k.cold != nil && k.cold.full()
	sh.mu.Unlock()
	if full {
		k.spill()
	}
}

// spill flushes the shards' maps into one run of the cold tier. It is
// entered with no shard lock held; of several callers that found the
// hot tier full, the first flushes it and the rest return at the
// re-check.
func (k *shardedSet) spill() {
	st := k.cold
	k.flushMu.Lock()
	defer k.flushMu.Unlock()
	if !st.full() {
		return
	}
	for i := range k.shards {
		k.shards[i].mu.Lock()
	}
	keys := st.sortBuf[:0]
	for i := range k.shards {
		for h := range k.shards[i].seen {
			keys = append(keys, h)
		}
	}
	slices.Sort(keys)
	st.sortBuf = keys
	if st.flush(keys) {
		for i := range k.shards {
			clear(k.shards[i].seen)
		}
	}
	for i := len(k.shards) - 1; i >= 0; i-- {
		k.shards[i].mu.Unlock()
	}
}

// insert adds a key pair, reporting whether it was new. sig may be empty
// unless the set is signature-keyed or collision-checked.
func (k *shardedSet) insert(h uint64, sig string) bool {
	sh := k.lock(h)
	defer k.unlock(sh)
	return k.insertLocked(sh, h, sig)
}

func (k *shardedSet) insertLocked(sh *keyShard, h uint64, sig string) bool {
	if k.useString {
		if _, dup := sh.strs[sig]; dup {
			return false
		}
		sh.strs[sig] = struct{}{}
		return true
	}
	if sh.guard != nil {
		checkCollision(sh.guard, h, sig)
	}
	return k.addLocked(sh, h)
}

// addLocked adds fingerprint h unless a tier holds it, reporting whether
// it was new. A budgeted set probes its cold tier when the shard's map
// misses, and counts the key it adds. Caller holds sh.mu.
func (k *shardedSet) addLocked(sh *keyShard, h uint64) bool {
	if _, dup := sh.seen[h]; dup {
		return false
	}
	if k.cold != nil {
		if k.cold.contains(h, &sh.blockBuf) {
			return false
		}
		k.cold.add()
	}
	sh.seen[h] = struct{}{}
	return true
}

// stateKey is a completed state's plain (unsymmetrized) key pair.
func (k *shardedSet) stateKey(s *state) (uint64, string) {
	var sig string
	if k.useString || dedupCollisionCheck {
		sig = s.signature()
	}
	return s.fingerprint(), sig
}

// record adds a completed behavior, reporting whether it was new. A new
// one is stored as the copies finish makes, so the caller may recycle s
// either way — or, for a child recorded mid-trial, roll it back.
func (k *shardedSet) record(s *state) bool {
	h, sig := k.stateKey(s)
	sh := k.lock(h)
	defer k.unlock(sh)
	if !k.insertLocked(sh, h, sig) {
		return false
	}
	sh.execs = append(sh.execs, recorded{h, s.finish()})
	return true
}

// seed pre-loads fingerprints observed elsewhere (a distributed peer's
// completed shards). Seeds bypass the dedupcheck collision guard — they
// carry no signature, and recording an empty one would poison the guard
// with spurious collisions. Seeding is a pure pruning hint: a seeded
// fingerprint's subtree was already fully explored by whoever exported
// it, so skipping it here cannot lose behaviors.
func (k *shardedSet) seed(hs []uint64) {
	if k.useString {
		return
	}
	for _, h := range hs {
		sh := k.lock(h)
		k.addLocked(sh, h)
		k.unlock(sh)
	}
}

// export returns the set's fingerprints in ascending order, so what a
// caller ships does not depend on map iteration order. A budgeted set
// exports only its hot tier — the disk runs are exactly the keys too
// numerous to ship anyway.
func (k *shardedSet) export() []uint64 {
	if k.useString {
		return nil
	}
	var out []uint64
	for i := range k.shards {
		sh := &k.shards[i]
		sh.mu.Lock()
		for h := range sh.seen {
			out = append(out, h)
		}
		sh.mu.Unlock()
	}
	slices.Sort(out)
	return out
}

// executions gathers every recorded execution, shard by shard.
func (k *shardedSet) executions() []*Execution {
	var out []*Execution
	for i := range k.shards {
		sh := &k.shards[i]
		sh.mu.Lock()
		for _, r := range sh.execs {
			out = append(out, r.x)
		}
		sh.mu.Unlock()
	}
	return out
}

// sorted returns every recorded execution in the canonical result order:
// by the fingerprint it was recorded under, with SourceKey breaking ties
// (which only a fingerprint collision can produce). The order is the same
// at every width and for every discovery order. Call it once the workers
// have joined: it gathers into, and sorts, shard 0's slice.
func (k *shardedSet) sorted() []*Execution {
	all := k.shards[0].execs
	for i := 1; i < len(k.shards); i++ {
		all = append(all, k.shards[i].execs...)
	}
	slices.SortFunc(all, func(a, b recorded) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		return strings.Compare(a.x.SourceKey(), b.x.SourceKey())
	})
	out := make([]*Execution, len(all))
	for i, r := range all {
		out[i] = r.x
	}
	return out
}

// degradations says why the spill tier fell back to one-sided
// operation; nil for in-memory sets and healthy spills. Call it once the
// workers have joined.
func (k *shardedSet) degradations() []string {
	if k.cold == nil {
		return nil
	}
	return k.cold.degraded
}

// release frees the disk-backed tier. The workers have joined, so it
// also publishes the spill gauges' final, exact values.
func (k *shardedSet) release() {
	if k.cold != nil {
		k.cold.release()
	}
}

// checkCollision records sig as h's signature, and panics with the
// fingerprint and both signatures if h already has a different one: the
// engine would otherwise merge two distinct behaviors. The guard map
// exists under the dedupcheck build tag (and in the collision-guard
// test), where memory for the full signature set is acceptable.
func checkCollision(guard map[uint64]string, h uint64, sig string) {
	prev, ok := guard[h]
	if !ok {
		guard[h] = sig
	} else if prev != sig {
		panic(fmt.Sprintf("core: fingerprint collision: %#016x is the fingerprint of both %q and %q", h, prev, sig))
	}
}
