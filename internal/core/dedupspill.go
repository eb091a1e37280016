package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"storeatomicity/internal/obslog"
	"storeatomicity/internal/telemetry"
)

// RAM-bounded dedup: the seen-set is the only engine structure that
// grows with the number of *distinct* states rather than with the
// program, so it alone decides the largest search a host can run. A
// spillStore keeps dedup working past that point: a hot in-memory tier
// absorbs inserts, and when it reaches its budgeted size its
// fingerprints are sorted and flushed as an immutable run file. Lookups
// check the hot tier, then binary-search each run through a sparse
// in-memory index (one key per block, so the resident cost of a spilled
// run is 1/spillBlockKeys of its size plus one block-sized read buffer).
//
// Runs never share keys — a fingerprint is inserted into the hot tier
// only after missing every tier — so membership is "any tier has it" and
// a flush needs no merge. When the run count passes spillMaxRuns, the
// runs are compacted into one with a loser-tree k-way merge, keeping
// per-lookup run probes bounded.
//
// Spilling is invisible to the search: the engine asks exactly the same
// question (was this fingerprint seen?) and get exactly the same answers,
// so the behavior set is bit-identical to an unbounded run. Degradation
// is deliberately one-sided. A flush failure marks the store broken and
// keeps everything in memory (correct, just unbounded again); a read
// failure during lookup reports "not seen", which only re-explores a
// duplicate subtree — final executions are deduplicated independently,
// so even a flaky disk cannot change the result set.

const (
	// spillBlockKeys is the run-file block size in keys: the sparse
	// index keeps the first key of each block, and a cold probe reads
	// one block. 512 keys = 4 KiB, one filesystem page.
	spillBlockKeys = 512
	// spillMaxRuns triggers compaction: a lookup miss probes every run,
	// so the run list is folded into one file before it gets long.
	spillMaxRuns = 8
	// spillHotBytesPerKey is the budgeted resident cost of one hot-tier
	// entry (map bucket + overhead, amortized).
	spillHotBytesPerKey = 16
)

// spillRun is one immutable sorted run of fingerprints on disk: n keys
// as little-endian uint64s, with the first key of each block mirrored in
// the in-memory index.
type spillRun struct {
	f     *os.File
	n     int
	index []uint64
}

// spillStore is the tiered fingerprint set described above. It is not
// safe for concurrent use; the engine gives each dedup shard
// its own store under the existing shard mutex.
type spillStore struct {
	hotCap int
	hot    map[uint64]struct{}
	runs   []*spillRun
	// broken latches a flush failure: the store stops spilling and
	// degrades to an ordinary in-memory set.
	broken bool
	// degraded records the first occurrence of each degradation leg
	// (flush, compact, read) so the final Stats/Incomplete report can
	// say *why* the run fell back, not just that it did.
	degraded []string

	runsC     *telemetry.Counter
	compactC  *telemetry.Counter
	runfilesG *telemetry.Gauge
	residentG *telemetry.Gauge
	jl        *obslog.Journal

	sortBuf  []uint64 // flush scratch
	blockBuf []byte   // cold-probe read buffer (one block)

	probesC *telemetry.Counter
}

// newSpillStore sizes a store to a byte budget (the hot tier holds
// budget/spillHotBytesPerKey fingerprints, minimum one).
func newSpillStore(budget int64, met *telemetry.EnumMetrics, jl *obslog.Journal) *spillStore {
	hotCap := budget / spillHotBytesPerKey
	if hotCap < 1 {
		hotCap = 1
	}
	st := &spillStore{hotCap: int(hotCap), hot: make(map[uint64]struct{}), jl: jl}
	if telemetry.Enabled && met != nil {
		st.runsC, st.probesC = met.SpillRuns, met.SpillProbes
		st.compactC = met.SpillCompactions
		st.runfilesG, st.residentG = met.DedupRunFiles, met.DedupResident
		met.DedupBudget.Set(budget)
	}
	return st
}

// degrade records one degradation reason per leg (the first failure of
// each kind is the interesting one; repeats add no information), and
// journals it — a silent fallback that only surfaces in the final
// report is exactly what the journal exists to prevent.
func (st *spillStore) degrade(leg string, err error) {
	for _, d := range st.degraded {
		if len(d) >= len(leg) && d[:len(leg)] == leg {
			return
		}
	}
	st.degraded = append(st.degraded, fmt.Sprintf("%s: %v", leg, err))
	st.jl.Emit(obslog.SpillDegraded, obslog.Fields{Detail: leg, Err: err.Error()})
}

// contains reports whether h is in any tier.
func (st *spillStore) contains(h uint64) bool {
	if _, ok := st.hot[h]; ok {
		return true
	}
	if len(st.runs) == 0 {
		return false
	}
	if st.probesC != nil {
		st.probesC.Inc(0)
	}
	for _, r := range st.runs {
		if st.runContains(r, h) {
			return true
		}
	}
	return false
}

// insert adds h, reporting whether it was new. A full hot tier is
// flushed to a fresh run after the insert.
func (st *spillStore) insert(h uint64) bool {
	if st.contains(h) {
		return false
	}
	st.hot[h] = struct{}{}
	st.residentG.Set(int64(len(st.hot)) * spillHotBytesPerKey)
	if len(st.hot) >= st.hotCap && !st.broken {
		st.flush()
	}
	return true
}

// runContains binary-searches one run: the sparse index locates the
// block that could hold h, one ReadAt fetches it, and a binary search
// over the block decides. I/O errors report "not seen" (see the
// file comment for why that is safe).
func (st *spillStore) runContains(r *spillRun, h uint64) bool {
	blk := sort.Search(len(r.index), func(i int) bool { return r.index[i] > h }) - 1
	if blk < 0 {
		return false
	}
	count := r.n - blk*spillBlockKeys
	if count > spillBlockKeys {
		count = spillBlockKeys
	}
	if cap(st.blockBuf) < spillBlockKeys*8 {
		st.blockBuf = make([]byte, spillBlockKeys*8)
	}
	buf := st.blockBuf[:count*8]
	if _, err := r.f.ReadAt(buf, int64(blk)*spillBlockKeys*8); err != nil {
		st.degrade("read", err)
		return false
	}
	lo, hi := 0, count
	for lo < hi {
		mid := (lo + hi) / 2
		k := binary.LittleEndian.Uint64(buf[mid*8:])
		if k == h {
			return true
		}
		if k < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return false
}

// flush sorts the hot tier into a new run file. On any I/O error the
// store is marked broken and the keys stay in memory.
func (st *spillStore) flush() {
	keys := st.sortBuf[:0]
	for h := range st.hot {
		keys = append(keys, h)
	}
	st.sortBuf = keys
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	r, err := writeRun(&sliceSource{keys: keys})
	if err != nil {
		st.broken = true
		st.degrade("flush", err)
		return
	}
	st.runs = append(st.runs, r)
	st.hot = make(map[uint64]struct{}, st.hotCap)
	if st.runsC != nil {
		st.runsC.Inc(0)
	}
	st.residentG.Set(0)
	if len(st.runs) > spillMaxRuns {
		st.compact()
	}
	st.runfilesG.Set(int64(len(st.runs)))
}

// compact folds every run into one via a loser-tree merge. Failure
// leaves the existing runs in place — they stay individually valid, the
// list is just longer than we wanted.
func (st *spillStore) compact() {
	cur := make([]*runCursor, len(st.runs))
	for i, r := range st.runs {
		cur[i] = &runCursor{br: bufio.NewReaderSize(io.NewSectionReader(r.f, 0, int64(r.n)*8), 1<<16)}
		cur[i].advance()
	}
	merged, err := writeRun(newLoserTree(cur))
	if err != nil {
		st.degrade("compact", err)
		return
	}
	for _, r := range st.runs {
		releaseRun(r)
	}
	st.runs = append(st.runs[:0], merged)
	if st.compactC != nil {
		st.compactC.Inc(0)
	}
}

// release closes and deletes every run file. The store is unusable
// afterwards.
func (st *spillStore) release() {
	for _, r := range st.runs {
		releaseRun(r)
	}
	st.runs, st.hot = nil, nil
}

func releaseRun(r *spillRun) {
	name := r.f.Name()
	r.f.Close()
	os.Remove(name)
}

// keySource yields ascending fingerprints for writeRun.
type keySource interface {
	next() (uint64, bool)
}

// sliceSource drains a sorted slice.
type sliceSource struct {
	keys []uint64
	i    int
}

func (s *sliceSource) next() (uint64, bool) {
	if s.i >= len(s.keys) {
		return 0, false
	}
	h := s.keys[s.i]
	s.i++
	return h, true
}

// createRunFile opens a fresh temp run file. It is a variable so the
// degradation tests can inject a failing or flaky filesystem without a
// real full disk.
var createRunFile = func() (*os.File, error) {
	return os.CreateTemp("", "mmdedup-*.run")
}

// writeRun streams a sorted key sequence into a fresh temp run file,
// building the sparse block index as it goes.
func writeRun(src keySource) (*spillRun, error) {
	f, err := createRunFile()
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	r := &spillRun{f: f}
	var word [8]byte
	for {
		h, ok := src.next()
		if !ok {
			break
		}
		if r.n%spillBlockKeys == 0 {
			r.index = append(r.index, h)
		}
		binary.LittleEndian.PutUint64(word[:], h)
		if _, err := bw.Write(word[:]); err != nil {
			releaseRun(r)
			return nil, err
		}
		r.n++
	}
	if err := bw.Flush(); err != nil {
		releaseRun(r)
		return nil, err
	}
	return r, nil
}

// runCursor streams one run for the merge.
type runCursor struct {
	br   *bufio.Reader
	key  uint64
	done bool
}

func (c *runCursor) advance() {
	var word [8]byte
	if _, err := io.ReadFull(c.br, word[:]); err != nil {
		c.done = true
		return
	}
	c.key = binary.LittleEndian.Uint64(word[:])
}

// loserTree is a k-way tournament merge over ascending run cursors.
// node[1..k-1] hold the losers of each internal match; node[0] holds the
// current overall winner. Popping the winner advances only its own
// cursor and replays one root-to-leaf path: O(log k) comparisons per
// key, independent of the run count.
type loserTree struct {
	cur  []*runCursor
	node []int
}

func newLoserTree(cur []*runCursor) *loserTree {
	k := len(cur)
	lt := &loserTree{cur: cur, node: make([]int, k)}
	winners := make([]int, 2*k)
	for i := 0; i < k; i++ {
		winners[k+i] = i
	}
	for i := k - 1; i >= 1; i-- {
		a, b := winners[2*i], winners[2*i+1]
		if lt.wins(a, b) {
			winners[i], lt.node[i] = a, b
		} else {
			winners[i], lt.node[i] = b, a
		}
	}
	if k == 1 {
		lt.node[0] = 0
	} else {
		lt.node[0] = winners[1]
	}
	return lt
}

// wins reports whether cursor a beats cursor b (smaller key; exhausted
// cursors lose to everything). Runs never share keys, so real ties
// cannot occur.
func (lt *loserTree) wins(a, b int) bool {
	ca, cb := lt.cur[a], lt.cur[b]
	if ca.done {
		return false
	}
	if cb.done {
		return true
	}
	return ca.key < cb.key
}

// next implements keySource: emit the winner, advance it, replay its
// path.
func (lt *loserTree) next() (uint64, bool) {
	w := lt.node[0]
	if lt.cur[w].done {
		return 0, false
	}
	h := lt.cur[w].key
	lt.cur[w].advance()
	k := len(lt.cur)
	for i := (w + k) / 2; i > 0; i /= 2 {
		if lt.wins(lt.node[i], w) {
			lt.node[i], w = w, lt.node[i]
		}
	}
	lt.node[0] = w
	return h, true
}
