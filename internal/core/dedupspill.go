package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"storeatomicity/internal/obslog"
	"storeatomicity/internal/telemetry"
)

// RAM-bounded dedup: the seen-set is the only engine structure that
// grows with the number of *distinct* states rather than with the
// program, so it alone decides the largest search a host can run. A
// budgeted set keeps dedup working past that point. Its shards' maps are
// the hot tier, which absorbs inserts; when the hot tier reaches its
// budgeted size, its fingerprints are sorted and flushed as an immutable
// run file into the set's one spillStore, the cold tier. Each run
// keeps a sparse in-memory index (one key per block) and a Bloom filter
// built while the run is written. A lookup that misses the hot tier asks
// each run's filter first, and reads a block only from the runs whose
// filter answers "maybe": a filter "no" is exact, so a fresh key usually
// reads nothing, and a spilled key reads about one block.
//
// The filters live inside the budget. The hot tier starts at
// budget/spillHotBytesPerKey keys, so a search that never flushes is
// unchanged; after each flush or compaction it shrinks to what the
// filters leave. The filters never hold more than half the budget: a new
// run's filter gets at most spillFilterBitsPerKey bits per key out of
// what is left of that half, and a compaction resizes the merged run's
// filter to fit the half with room for the runs still to come. As a
// search outgrows its budget, bits per key fall; below
// spillFilterMinBitsPerKey the store drops its filters and the hot tier
// takes the whole budget again, which is the store without filters.
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
	// spillFilterBitsPerKey caps a run filter's density: 10 bits per
	// key with 7 probes passes about 1% of the keys a run does not hold.
	spillFilterBitsPerKey = 10
	// spillFilterMinBitsPerKey is the thinnest filter worth its bytes:
	// below one bit per key a filter passes most keys a run does not
	// hold, and its bytes are better spent on the hot tier.
	spillFilterMinBitsPerKey = 1
)

// spillRun is one immutable sorted run of fingerprints on disk: n keys
// as little-endian uint64s, with the first key of each block mirrored in
// the in-memory index, and the run's Bloom filter.
type spillRun struct {
	f      *os.File
	n      int
	index  []uint64
	filter runFilter
}

// spillStore is the cold tier of one budgeted seen-set, sized to the
// whole budget: the runs its shards' maps flush into, with their indexes
// and filters. The runs change only in flush and compact, which run with
// every shard locked (shardedSet.spill), so probes under different shard
// locks read them concurrently between flushes.
type spillStore struct {
	budget int64
	// hotCap is the hot tier's capacity in keys. hot counts the keys in
	// the shards' maps: each is added under its shard's lock, and a flush
	// zeroes the count with every shard locked.
	hotCap int
	hot    atomic.Int64
	runs   []*spillRun
	// filterBytes is what the runs' filters hold, at most budget/2;
	// filterRate is the bits per key a flushed run's filter may take,
	// spillFilterBitsPerKey until a compaction lowers it.
	filterBytes int64
	filterRate  float64
	// broken latches a flush failure: the store stops spilling and
	// the set degrades to an ordinary in-memory set.
	broken bool
	// degraded records the first occurrence of each degradation leg
	// (flush, compact, read) so the final Stats/Incomplete report can
	// say *why* the run fell back, not just that it did. Two shards'
	// probes can fail a read at once, hence degMu.
	degMu    sync.Mutex
	degraded []string

	met                              *telemetry.EnumMetrics
	jl                               *obslog.Journal
	runsC, probesC, readsC, compactC *telemetry.Counter

	sortBuf []uint64 // flush scratch
}

// newSpillStore sizes a store to a byte budget: the hot tier starts at
// budget/spillHotBytesPerKey fingerprints, minimum one.
func newSpillStore(budget int64, met *telemetry.EnumMetrics, jl *obslog.Journal) *spillStore {
	st := &spillStore{budget: budget, filterRate: spillFilterBitsPerKey, met: met, jl: jl}
	st.fitHot()
	if met != nil {
		st.runsC, st.probesC, st.readsC = met.SpillRuns, met.SpillProbes, met.SpillReads
		st.compactC = met.SpillCompactions
		met.DedupBudget.Set(budget)
	}
	return st
}

// fitHot sizes the hot tier to the budget the filters leave.
func (st *spillStore) fitHot() {
	st.hotCap = int(max((st.budget-st.filterBytes)/spillHotBytesPerKey, 1))
}

// resident is the set's budgeted footprint: hot entries plus filters.
func (st *spillStore) resident() int64 {
	return st.hot.Load()*spillHotBytesPerKey + st.filterBytes
}

// add counts a key that a shard's map took. Caller holds that shard's
// lock.
func (st *spillStore) add() {
	n := st.hot.Add(1)
	if st.met != nil {
		st.met.DedupResident.Set(n*spillHotBytesPerKey + st.filterBytes)
	}
}

// full reports whether the hot tier has reached its capacity and the
// store can still flush. hotCap and broken change only in flush, so the
// caller holds a shard lock or the set's flush mutex.
func (st *spillStore) full() bool {
	return st.hot.Load() >= int64(st.hotCap) && !st.broken
}

// degrade records one degradation reason per leg (the first failure of
// each kind is the interesting one; repeats add no information), and
// journals it — a silent fallback that only surfaces in the final
// report is exactly what the journal exists to prevent.
func (st *spillStore) degrade(leg string, err error) {
	st.degMu.Lock()
	defer st.degMu.Unlock()
	for _, d := range st.degraded {
		if len(d) >= len(leg) && d[:len(leg)] == leg {
			return
		}
	}
	st.degraded = append(st.degraded, fmt.Sprintf("%s: %v", leg, err))
	st.jl.Emit(obslog.SpillDegraded, obslog.Fields{Detail: leg, Err: err.Error()})
}

// contains reports whether a run holds h, reading blocks into *buf, the
// probing shard's buffer. Runs whose filter rules h out are skipped
// without a read. Caller holds a shard lock.
func (st *spillStore) contains(h uint64, buf *[]byte) bool {
	if len(st.runs) == 0 {
		return false
	}
	st.probesC.Inc(0)
	x := filterKey(h)
	for _, r := range st.runs {
		if r.filter.mayContain(x) && st.runContains(r, h, buf) {
			return true
		}
	}
	return false
}

// runContains binary-searches one run: the sparse index locates the
// block that could hold h, one ReadAt fetches it, and a binary search
// over the block decides. I/O errors report "not seen" (see the
// file comment for why that is safe).
func (st *spillStore) runContains(r *spillRun, h uint64, blockBuf *[]byte) bool {
	blk := sort.Search(len(r.index), func(i int) bool { return r.index[i] > h }) - 1
	if blk < 0 {
		return false
	}
	count := r.n - blk*spillBlockKeys
	if count > spillBlockKeys {
		count = spillBlockKeys
	}
	if cap(*blockBuf) < spillBlockKeys*8 {
		*blockBuf = make([]byte, spillBlockKeys*8)
	}
	buf := (*blockBuf)[:count*8]
	st.readsC.Inc(0)
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

// flush writes the hot tier's keys, sorted, into a new run file, whose
// filter takes at most filterRate bits per key from what is left of the
// filters' half of the budget, and then refits the hot tier. It reports
// whether the caller, which holds every shard lock, may now empty the
// shards' maps. On any I/O error the store is marked broken and the
// keys stay in memory.
func (st *spillStore) flush(keys []uint64) bool {
	r, err := writeRun(&sliceSource{keys: keys}, len(keys), filterSize(len(keys), st.filterRate, st.budget/2-st.filterBytes))
	if err != nil {
		st.broken = true
		st.degrade("flush", err)
		return false
	}
	st.runs = append(st.runs, r)
	st.filterBytes += r.filter.bytes()
	st.hot.Store(0)
	st.runsC.Inc(0)
	if len(st.runs) > spillMaxRuns {
		st.compact()
	}
	st.fitHot()
	st.publish()
	return true
}

// publish sets the resident and run-file gauges. Inserts under different
// shard locks can cross between their count and their gauge update, so
// release publishes once more after the workers have joined, which makes
// the final values exact.
func (st *spillStore) publish() {
	if st.met != nil {
		st.met.DedupResident.Set(st.resident())
		st.met.DedupRunFiles.Set(int64(len(st.runs)))
	}
}

// compact folds every run into one via a loser-tree merge. The merged
// run's filter gets the bits per key that fit the filters' half of the
// budget with room for spillMaxRuns more runs of the current hot size,
// and flushes until the next compaction take the same rate. The rate
// only falls as the store grows, so once it is below
// spillFilterMinBitsPerKey the store builds no filters again and the
// hot tier takes the whole budget. Failure leaves the existing runs in
// place — they stay individually valid, the list is just longer than we
// wanted.
func (st *spillStore) compact() {
	n := 0
	cur := make([]*runCursor, len(st.runs))
	for i, r := range st.runs {
		n += r.n
		cur[i] = newRunCursor(r)
	}
	rate := min(spillFilterBitsPerKey, float64(st.budget/2*8)/float64(n+spillMaxRuns*st.hotCap))
	merged, err := writeRun(newLoserTree(cur), n, filterSize(n, rate, st.budget/2))
	if err != nil {
		st.degrade("compact", err)
		return
	}
	for _, r := range st.runs {
		releaseRun(r)
	}
	st.runs = append(st.runs[:0], merged)
	st.filterBytes, st.filterRate = merged.filter.bytes(), rate
	st.compactC.Inc(0)
}

// release publishes the gauges' final values, then closes and deletes
// every run file. The store is unusable afterwards.
func (st *spillStore) release() {
	st.publish()
	for _, r := range st.runs {
		releaseRun(r)
	}
	st.runs = nil
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

// writeRun streams a sorted sequence of n keys into a fresh temp run
// file, building the sparse block index and a filter of at most
// filterBits bits as it goes. The write buffer is at most 64 KiB, and no
// larger than the run's 8·n bytes.
func writeRun(src keySource, n int, filterBits int64) (*spillRun, error) {
	f, err := createRunFile()
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, min(1<<16, 8*n))
	r := &spillRun{f: f, index: make([]uint64, 0, (n+spillBlockKeys-1)/spillBlockKeys), filter: newRunFilter(n, filterBits)}
	var word [8]byte
	for {
		h, ok := src.next()
		if !ok {
			break
		}
		if r.n%spillBlockKeys == 0 {
			r.index = append(r.index, h)
		}
		r.filter.add(filterKey(h))
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

// runFilter is a run's Bloom filter (Bloom, CACM 1970), as LSM stores
// keep one per sorted run: k bit positions per key, taken by double
// hashing from a remix of the fingerprint. A filter with no words holds
// nothing and rules nothing out.
type runFilter struct {
	words []uint64
	k     int
}

// filterKey remixes a fingerprint for filter probes with the splitmix64
// finalizer. The raw low bits of an FNV-1a fingerprint are weak.
func filterKey(h uint64) uint64 {
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// filterSize is the filter, in bits, that a run of n keys gets: rate
// bits per key within room bytes, or none below
// spillFilterMinBitsPerKey.
func filterSize(n int, rate float64, room int64) int64 {
	m := min(rate*float64(n), float64(room*8))
	if m < spillFilterMinBitsPerKey*float64(n) {
		return 0
	}
	return int64(m)
}

// newRunFilter sizes a filter for n keys to whole words within m bits,
// with the probe count that minimizes false positives at that density
// (bits per key × ln 2).
func newRunFilter(n int, m int64) runFilter {
	words := m / 64
	if words <= 0 {
		return runFilter{}
	}
	k := int(float64(words*64)/float64(n)*math.Ln2 + 0.5)
	return runFilter{words: make([]uint64, words), k: max(k, 1)}
}

// bytes is the filter's resident size.
func (f *runFilter) bytes() int64 { return int64(len(f.words)) * 8 }

// add sets x's k positions. Position i is the high word of
// (x + i·d)·m, which maps the sum evenly onto the m bits.
func (f *runFilter) add(x uint64) {
	if len(f.words) == 0 {
		return
	}
	m, d := uint64(len(f.words))*64, bits.RotateLeft64(x, 32)|1
	for i := 0; i < f.k; i++ {
		p, _ := bits.Mul64(x, m)
		f.words[p/64] |= 1 << (p % 64)
		x += d
	}
}

// mayContain reports whether x's k positions are all set: false means
// the run does not hold the key.
func (f *runFilter) mayContain(x uint64) bool {
	if len(f.words) == 0 {
		return true
	}
	m, d := uint64(len(f.words))*64, bits.RotateLeft64(x, 32)|1
	for i := 0; i < f.k; i++ {
		p, _ := bits.Mul64(x, m)
		if f.words[p/64]&(1<<(p%64)) == 0 {
			return false
		}
		x += d
	}
	return true
}

// runCursor streams one run for the merge.
type runCursor struct {
	br   *bufio.Reader
	word [8]byte
	key  uint64
	done bool
}

// newRunCursor opens a cursor on r's first key, reading through a buffer
// of at most 64 KiB (a run of n keys needs no more than 8·n bytes).
func newRunCursor(r *spillRun) *runCursor {
	c := &runCursor{br: bufio.NewReaderSize(io.NewSectionReader(r.f, 0, int64(r.n)*8), min(1<<16, 8*r.n))}
	c.advance()
	return c
}

func (c *runCursor) advance() {
	if _, err := io.ReadFull(c.br, c.word[:]); err != nil {
		c.done = true
		return
	}
	c.key = binary.LittleEndian.Uint64(c.word[:])
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
