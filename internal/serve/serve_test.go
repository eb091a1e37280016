package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
)

// startServer boots a server on an ephemeral port and tears it down
// with the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func postEnum(t *testing.T, addr string, req EnumRequest) (string, []byte, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+addr+PathEnumerate, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /enumerate: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.Header.Get("X-Cache"), out, resp.StatusCode
}

// oracle computes the fresh sequential enumeration body for a registry
// test — the reference every server response must be bit-identical to.
func oracle(t *testing.T, test, model string, maxBehaviors int) []byte {
	t.Helper()
	tc, ok := litmus.ByName(test)
	if !ok {
		t.Fatalf("unknown test %q", test)
	}
	m, _ := litmus.ModelByName(model)
	opts := core.Options{Speculative: m.Speculative, MaxBehaviors: maxBehaviors}
	if opts.MaxBehaviors <= 0 {
		opts.MaxBehaviors = 1 << 20
	}
	fp := core.ProgramFingerprint(m.Name, tc.Build(), opts)
	body, _, err := ComputeBody(context.Background(), tc, m, opts, 1, fp)
	if err != nil {
		t.Fatalf("oracle %s/%s: %v", test, model, err)
	}
	return body
}

// TestServeBasicHitMiss: the second identical request is a cache hit
// and byte-identical to the first (a miss), which in turn matches a
// fresh sequential enumeration.
func TestServeBasicHitMiss(t *testing.T) {
	s := startServer(t, Config{})
	want := oracle(t, "SB", "TSO", 0)
	class, body, code := postEnum(t, s.Addr(), EnumRequest{Test: "SB", Model: "TSO"})
	if code != http.StatusOK || class != "miss" {
		t.Fatalf("first request: code %d class %q", code, class)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("miss body != oracle\n got %s\nwant %s", body, want)
	}
	class, body, code = postEnum(t, s.Addr(), EnumRequest{Test: "SB", Model: "TSO"})
	if code != http.StatusOK || class != "hit" {
		t.Fatalf("second request: code %d class %q", code, class)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("hit body != oracle")
	}
	st := s.StatusSnapshot()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("counters: hits %d misses %d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
}

// TestServeBadRequests: resolution failures are 400s and never occupy
// the cache or the admission slots.
func TestServeBadRequests(t *testing.T) {
	s := startServer(t, Config{})
	for _, req := range []EnumRequest{
		{Model: "TSO"}, // no program
		{Test: "SB", Litmus: "name X", Model: "SC"}, // both
		{Test: "NoSuchTest", Model: "TSO"},
		{Test: "SB", Model: "NoSuchModel"},
		{Litmus: "not litmus at all \x01", Model: "TSO"},
	} {
		_, _, code := postEnum(t, s.Addr(), req)
		if code != http.StatusBadRequest {
			t.Errorf("request %+v: code %d, want 400", req, code)
		}
	}
	if st := s.StatusSnapshot(); st.Cache.Entries != 0 || st.Inflight != 0 {
		t.Fatalf("bad requests leaked state: %+v", st)
	}
}

// TestServeChurnBitIdentical is the cache-correctness-under-churn
// property: concurrent zipf-skewed traffic against a tiny byte budget —
// so entries are evicted and re-enumerated continuously — must yield
// every response bit-identical to a fresh sequential enumeration of the
// same key. Run under -race in CI.
func TestServeChurnBitIdentical(t *testing.T) {
	corpus := []string{"SB", "MP", "LB", "CoRR", "CoWW", "CoWR", "CoRW", "SB+Fences", "MP+Fences", "LB+Fences", "IRIW", "CAS-Lock"}
	want := make(map[string][]byte, len(corpus))
	for _, name := range corpus {
		want[name] = oracle(t, name, "TSO", 0)
	}
	// A budget a third the size of the corpus (6.2 KB of TSO bodies and
	// entry overhead), so entries churn while requests race, and below
	// IRIW's 2.1 KB entry, so that one is refused as oversize.
	s := startServer(t, Config{CacheBytes: 2 << 10, MaxInflight: 8})

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			zipf := rand.NewZipf(r, 1.3, 1, uint64(len(corpus)-1))
			for i := 0; i < perWorker; i++ {
				name := corpus[zipf.Uint64()]
				body, _ := json.Marshal(EnumRequest{Test: name, Model: "TSO"})
				resp, err := http.Post("http://"+s.Addr()+PathEnumerate, "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				got, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					time.Sleep(10 * time.Millisecond)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", name, resp.StatusCode, got)
					return
				}
				if !bytes.Equal(got, want[name]) {
					errs <- fmt.Errorf("%s: response differs from fresh enumeration\n got %s\nwant %s", name, got, want[name])
					return
				}
			}
			errs <- nil
		}(int64(w) + 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := s.StatusSnapshot()
	if st.Cache.Evictions == 0 || st.Cache.Oversize == 0 {
		t.Fatalf("evictions %d, oversize %d: the churn test must both evict and refuse an oversize body",
			st.Cache.Evictions, st.Cache.Oversize)
	}
}

// slowLitmus generates a wide store-buffering program whose enumeration
// takes tens of milliseconds (4 threads) to >100ms (5 threads) — long
// enough that concurrent requests demonstrably overlap one flight.
func slowLitmus(threads int) string {
	src := "name SlowSBW\n"
	for i := 0; i < threads; i++ {
		src += fmt.Sprintf("thread T%d\n  S m%d, 1\n", i, i)
		for k := 1; k <= 2; k++ {
			src += fmt.Sprintf("  r%d = L m%d\n", k, (i+k)%threads)
		}
	}
	return src
}

// TestServeCoalescing: concurrent identical cold requests ride one
// enumeration — observable via the coalesced counter — and all get the
// same bytes.
func TestServeCoalescing(t *testing.T) {
	// The store makes "exactly one enumeration ran" directly observable:
	// each completed enumeration appends exactly one journal record.
	store := filepath.Join(t.TempDir(), "coalesce.ndjson")
	s := startServer(t, Config{MaxInflight: 8, StorePath: store})
	req := EnumRequest{Litmus: slowLitmus(4), Model: "Relaxed"}
	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(req)
			resp, err := http.Post("http://"+s.Addr()+PathEnumerate, "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				bodies[i], _ = io.ReadAll(resp.Body)
			}
		}(i)
	}
	wg.Wait()
	var first []byte
	for i, b := range bodies {
		if b == nil {
			t.Fatalf("client %d got no body", i)
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(b, first) {
			t.Fatalf("client %d body differs", i)
		}
	}
	st := s.StatusSnapshot()
	// Get counts a miss for every request that arrives before the body
	// is cached — including followers that then ride the leader's flight
	// — so the single-flight proof is the journal: one enumeration, one
	// logical write, no matter how many clients missed.
	if st.Journal == nil || st.Journal.LogicalWrites != 1 {
		t.Fatalf("journal writes %+v, want exactly 1 (single enumeration for %d clients)", st.Journal, clients)
	}
	if st.Cache.Coalesced == 0 {
		t.Fatalf("no coalescing observed for %d concurrent identical requests", clients)
	}
	if st.Cache.Hits+st.Cache.Misses != clients {
		t.Fatalf("hits %d + misses %d != %d clients", st.Cache.Hits, st.Cache.Misses, clients)
	}
}

// TestServeAdmissionControl: with one enumeration slot, a second
// concurrent DISTINCT slow request is refused with 429 + Retry-After
// rather than queued.
func TestServeAdmissionControl(t *testing.T) {
	s := startServer(t, Config{MaxInflight: 1})
	var wg sync.WaitGroup
	codes := make([]int, 2)
	retryAfter := make([]string, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct MaxBehaviors budgets → distinct fingerprints →
			// no coalescing; both requests want an admission slot. The
			// program must enumerate slowly enough that the requests
			// overlap — sized up as the engine got faster.
			req := EnumRequest{Litmus: slowLitmus(6), Model: "Relaxed", MaxBehaviors: 20000 + i}
			body, _ := json.Marshal(req)
			resp, err := http.Post("http://"+s.Addr()+PathEnumerate, "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	ok, busy := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			busy++
			if retryAfter[i] == "" {
				t.Errorf("429 without Retry-After")
			}
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if ok != 1 || busy != 1 {
		t.Fatalf("got %d OK / %d busy, want 1/1 (MaxInflight=1)", ok, busy)
	}
	if st := s.StatusSnapshot(); st.Rejected != 1 {
		t.Fatalf("rejected counter %d, want 1", st.Rejected)
	}
}

// TestServeWarmRestart: a restarted server replays its journal and
// serves the whole prior corpus from cache — zero misses — with bodies
// bit-identical to the first server's.
func TestServeWarmRestart(t *testing.T) {
	store := filepath.Join(t.TempDir(), "cache.ndjson")
	corpus := []string{"SB", "MP", "LB", "IRIW"}

	s1 := startServer(t, Config{StorePath: store})
	first := make(map[string][]byte)
	for _, name := range corpus {
		_, body, code := postEnum(t, s1.Addr(), EnumRequest{Test: name, Model: "TSO"})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", name, code)
		}
		first[name] = body
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2 := startServer(t, Config{StorePath: store})
	if s2.replayed != len(corpus) {
		t.Fatalf("replayed %d entries, want %d", s2.replayed, len(corpus))
	}
	for _, name := range corpus {
		class, body, code := postEnum(t, s2.Addr(), EnumRequest{Test: name, Model: "TSO"})
		if code != http.StatusOK || class != "hit" {
			t.Fatalf("%s after restart: code %d class %q, want warm hit", name, code, class)
		}
		if !bytes.Equal(body, first[name]) {
			t.Fatalf("%s: warm body differs from original", name)
		}
	}
	if st := s2.StatusSnapshot(); st.Cache.Misses != 0 {
		t.Fatalf("warm server missed %d times, want 0", st.Cache.Misses)
	}
}
