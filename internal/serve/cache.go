package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// The memo cache: one LRU keyed by the canonical request fingerprint
// (core.ProgramFingerprint), holding finished canonical response bodies
// under one byte budget, with per-key single-flight so a burst of
// identical misses costs one enumeration.
//
// The budget is not split into shards picked by fingerprint bits: the
// FNV-1a prime is 3 mod 16 and each listing byte enters as a 64-bit
// word, so fp%16 is a constant XOR the low nibbles of the listing's
// bytes, whole program families land in one shard, and a per-shard
// budget thrashes there while the other shards sit empty. One mutex
// guards the list, the map and the flights; a hit holds it for one map
// lookup and one list move (BenchmarkCacheGet measures that under
// contention).

// entryOverhead approximates the per-entry bookkeeping (map slot, list
// element, entry struct) charged against the byte budget on top of the
// body itself.
const entryOverhead = 96

// flight is one in-progress enumeration that concurrent identical
// requests wait on instead of re-enumerating (single-flight).
type flight struct {
	done   chan struct{}
	status int
	body   []byte
	// retryAfter is set when the leader was turned away by admission
	// control, so followers inherit the 429 + Retry-After verbatim.
	retryAfter int
}

type cacheEntry struct {
	fp   uint64
	body []byte
}

// Cache is the fingerprint-keyed memo cache. Its counters are plain
// atomics that /status and /metrics both render, so the two endpoints
// always agree. bytes and entries change only under mu, so they are
// exact there and Stats can read them without it.
type Cache struct {
	budget int64 // 0 = unbounded

	mu     sync.Mutex
	lru    *list.List // front = most recently used; values are *cacheEntry
	byFP   map[uint64]*list.Element
	flight map[uint64]*flight

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
	oversize  atomic.Int64
	entries   atomic.Int64
	bytes     atomic.Int64
}

// NewCache builds a cache holding at most budget bytes of response
// bodies (plus bookkeeping overhead); budget <= 0 means unbounded.
func NewCache(budget int64) *Cache {
	return &Cache{
		budget: max(budget, 0),
		lru:    list.New(),
		byFP:   make(map[uint64]*list.Element),
		flight: make(map[uint64]*flight),
	}
}

// Get returns the cached body for fp, promoting it to most recently
// used. The returned slice is shared — callers must not mutate it.
func (c *Cache) Get(fp uint64) ([]byte, bool) {
	body, ok := c.peek(fp)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return body, ok
}

// peek is Get without the hit/miss accounting — the flight leader's
// double-check after winning the race, which already counted its miss.
func (c *Cache) peek(fp uint64) (body []byte, ok bool) {
	c.mu.Lock()
	el, ok := c.byFP[fp]
	if ok {
		c.lru.MoveToFront(el)
		body = el.Value.(*cacheEntry).body
	}
	c.mu.Unlock()
	return body, ok
}

// Put inserts fp → body, evicting least-recently-used entries until the
// cache fits its budget. A body larger than the whole budget is not
// cached at all (it would only evict everything and then itself); Put
// reports whether the entry was admitted.
func (c *Cache) Put(fp uint64, body []byte) bool {
	size := int64(len(body)) + entryOverhead
	if c.budget > 0 && size > c.budget {
		c.oversize.Add(1)
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byFP[fp]; ok {
		// A racing leader already cached this key; keep the incumbent
		// (the bodies are bit-identical by construction).
		c.lru.MoveToFront(el)
		return true
	}
	// size <= budget, so the loop stops before the list runs dry.
	for c.budget > 0 && c.bytes.Load()+size > c.budget {
		victim := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.byFP, victim.fp)
		c.bytes.Add(-(int64(len(victim.body)) + entryOverhead))
		c.entries.Add(-1)
		c.evictions.Add(1)
	}
	c.byFP[fp] = c.lru.PushFront(&cacheEntry{fp: fp, body: body})
	c.bytes.Add(size)
	c.entries.Add(1)
	return true
}

// Begin joins or starts the single-flight for fp. The first caller gets
// leader=true and MUST call Finish exactly once; followers receive the
// completed flight (its done channel already closed by the leader) and
// are counted as coalesced.
func (c *Cache) Begin(fp uint64) (f *flight, leader bool) {
	c.mu.Lock()
	if f, ok := c.flight[fp]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		<-f.done
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	c.flight[fp] = f
	c.mu.Unlock()
	return f, true
}

// Finish publishes the leader's outcome to every waiter and retires the
// flight, so later requests go back through the cache.
func (c *Cache) Finish(fp uint64, f *flight, status int, body []byte, retryAfter int) {
	f.status, f.body, f.retryAfter = status, body, retryAfter
	c.mu.Lock()
	delete(c.flight, fp)
	c.mu.Unlock()
	close(f.done)
}

// Stats returns the cache counters as a flat snapshot for /status.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Oversize:  c.oversize.Load(),
		Entries:   c.entries.Load(),
		Bytes:     c.bytes.Load(),
		Budget:    c.budget,
	}
}

// CacheStats is the /status cache block.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	Oversize  int64 `json:"oversize"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget,omitempty"`
}
