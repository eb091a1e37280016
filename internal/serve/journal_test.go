package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// validBody builds a minimal body that passes replay's embedded-
// fingerprint cross-check.
func validBody(fp uint64) []byte {
	return []byte(fmt.Sprintf(`{"model":"TSO","fingerprint":"%016x","behaviors":1,"outcomes":[],"executions":[]}`, fp))
}

func validLine(t *testing.T, model string, fp uint64, body []byte) []byte {
	t.Helper()
	fps := fmt.Sprintf("%016x", fp)
	rec := Record{Model: model, FP: fps, Body: body, Sum: recordSum(model, fps, body)}
	line, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// TestStoreBatchesWrites: the write-behind queue turns many logical
// appends into few file writes — dbCalls ≪ logicalWrites — and Close
// drains the remainder.
func TestStoreBatchesWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ndjson")
	// A huge interval isolates the count-based flush path.
	s, err := OpenStore(path, 64, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64*3 + 5
	for i := 0; i < n; i++ {
		s.Append("TSO", uint64(i), validBody(uint64(i)))
	}
	st := s.Stats()
	if st.LogicalWrites != n {
		t.Fatalf("logical writes %d, want %d", st.LogicalWrites, n)
	}
	if st.DBCalls != 3 {
		t.Fatalf("db calls %d, want 3 (three full batches of 64)", st.DBCalls)
	}
	if st.Pending != 5 {
		t.Fatalf("pending %d, want 5", st.Pending)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st = s.Stats(); st.DBCalls != 4 || st.Pending != 0 {
		t.Fatalf("after close: db calls %d pending %d, want 4/0", st.DBCalls, st.Pending)
	}
	if ratio := float64(st.DBCalls) / float64(st.LogicalWrites); ratio > 1.0/8 {
		t.Fatalf("db_calls/logical = %.3f, want ≤ 0.125", ratio)
	}
	recs, dropped, err := ReplayFile(path)
	if err != nil || dropped != 0 || len(recs) != n {
		t.Fatalf("replay: %d recs, %d dropped, err %v; want %d/0/nil", len(recs), dropped, err, n)
	}
}

// TestStoreIntervalFlush: a partial batch is not stranded — the ticker
// flushes it within FlushInterval.
func TestStoreIntervalFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ndjson")
	s, err := OpenStore(path, 1<<20, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		s.Append("TSO", uint64(i), validBody(uint64(i)))
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := s.Stats(); st.Pending == 0 {
			if st.DBCalls != 1 || st.LogicalWrites != 3 {
				t.Fatalf("db calls %d logical %d, want 1/3", st.DBCalls, st.LogicalWrites)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ticker never flushed the partial batch: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplayDropsUnverifiable: replay recovers every record that
// verifies and drops — without aborting — bad JSON, checksum failures,
// fingerprint mismatches, and a torn final line; later duplicates win.
func TestReplayDropsUnverifiable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ndjson")
	var buf bytes.Buffer

	buf.Write(validLine(t, "TSO", 0xa1, validBody(0xa1))) // good
	buf.WriteString("{this is not json\n")                // corrupt line
	// Well-formed JSON whose checksum is wrong.
	badSum := Record{Model: "TSO", FP: fmt.Sprintf("%016x", uint64(0xb2)),
		Body: validBody(0xb2), Sum: strings.Repeat("0", 16)}
	line, _ := json.Marshal(&badSum)
	buf.Write(append(line, '\n'))
	// Body whose embedded fingerprint disagrees with the record's: the
	// checksum passes (it covers the bytes as written) but the cross-
	// check must reject it.
	wrongBody := validBody(0x999)
	buf.Write(validLine(t, "TSO", 0xc3, wrongBody))
	// A duplicate fingerprint — the later record must win.
	buf.Write(validLine(t, "TSO", 0xd4, validBody(0xd4)))
	dupBody := []byte(fmt.Sprintf(`{"model":"TSO","fingerprint":"%016x","behaviors":2,"outcomes":[],"executions":[]}`, uint64(0xd4)))
	buf.Write(validLine(t, "TSO", 0xd4, dupBody))
	// Torn tail: a valid line cut mid-record, as a crash mid-write
	// leaves it.
	torn := validLine(t, "TSO", 0xe5, validBody(0xe5))
	buf.Write(torn[:len(torn)/2])

	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, dropped, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 4 {
		t.Fatalf("dropped %d, want 4 (bad json, bad sum, fp mismatch, torn tail)", dropped)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	if recs[0].FP != fmt.Sprintf("%016x", uint64(0xa1)) {
		t.Fatalf("rec 0 fp %s", recs[0].FP)
	}
	if recs[1].FP != fmt.Sprintf("%016x", uint64(0xd4)) || !bytes.Equal(recs[1].Body, dupBody) {
		t.Fatalf("duplicate dedup kept the wrong record: %s %s", recs[1].FP, recs[1].Body)
	}

	// Compaction writes exactly the survivors; a second replay is clean.
	if err := CompactFile(path, recs); err != nil {
		t.Fatal(err)
	}
	recs2, dropped2, err := ReplayFile(path)
	if err != nil || dropped2 != 0 || len(recs2) != len(recs) {
		t.Fatalf("post-compact replay: %d recs, %d dropped, err %v", len(recs2), dropped2, err)
	}
	for i := range recs {
		if !bytes.Equal(recs[i].Body, recs2[i].Body) {
			t.Fatalf("compact round-trip changed record %d", i)
		}
	}
}

// TestReplayMissingFile: a nonexistent journal replays empty.
func TestReplayMissingFile(t *testing.T) {
	recs, dropped, err := ReplayFile(filepath.Join(t.TempDir(), "nope.ndjson"))
	if err != nil || dropped != 0 || len(recs) != 0 {
		t.Fatalf("got %d recs, %d dropped, err %v; want empty", len(recs), dropped, err)
	}
}

// TestServerRecoversFromTornFlush is the kill-mid-flush scenario end to
// end: a server populates its journal, the process "dies" leaving a
// torn final record, and the next server start replays the verified
// prefix, drops the tail, compacts it away, and serves warm hits.
func TestServerRecoversFromTornFlush(t *testing.T) {
	store := filepath.Join(t.TempDir(), "cache.ndjson")
	corpus := []string{"SB", "MP", "LB"}

	s1 := startServer(t, Config{StorePath: store})
	want := make(map[string][]byte)
	for _, name := range corpus {
		_, body, code := postEnum(t, s1.Addr(), EnumRequest{Test: name, Model: "TSO"})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", name, code)
		}
		want[name] = body
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: duplicate the last line cut mid-record, exactly
	// what an interrupted flush leaves behind.
	data, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(bytes.TrimRight(data, "\n"), []byte("\n"))
	last := lines[len(lines)-1]
	torn := append(data, last[:len(last)/2]...)
	if err := os.WriteFile(store, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := startServer(t, Config{StorePath: store})
	if s2.replayed != len(corpus) || s2.dropped != 1 {
		t.Fatalf("replayed %d dropped %d, want %d/1", s2.replayed, s2.dropped, len(corpus))
	}
	for _, name := range corpus {
		class, body, code := postEnum(t, s2.Addr(), EnumRequest{Test: name, Model: "TSO"})
		if code != http.StatusOK || class != "hit" {
			t.Fatalf("%s after torn restart: code %d class %q", name, code, class)
		}
		if !bytes.Equal(body, want[name]) {
			t.Fatalf("%s: recovered body differs from original", name)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Startup compaction rewrote the journal: the torn fragment is gone
	// and a third replay verifies everything.
	recs, dropped, err := ReplayFile(store)
	if err != nil || dropped != 0 {
		t.Fatalf("post-compaction replay: dropped %d err %v, want clean", dropped, err)
	}
	if len(recs) != len(corpus) {
		t.Fatalf("post-compaction records %d, want %d", len(recs), len(corpus))
	}
	if raw, _ := os.ReadFile(store); bytes.Contains(raw, last[:len(last)/2+1]) && !bytes.Contains(raw, last) {
		t.Fatalf("compaction left the torn fragment in place")
	}
}

// TestCacheEvictionUnderBudget exercises the LRU directly: a budget
// that holds only a few bodies evicts the cold tail, never exceeds its
// byte budget, and refuses oversize bodies outright.
func TestCacheEvictionUnderBudget(t *testing.T) {
	c := NewCache(16 << 10)
	body := []byte(strings.Repeat("x", 300))
	for i := 0; i < 200; i++ {
		c.Put(uint64(i), body)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions across 200 puts into a 16 KiB budget")
	}
	if st.Bytes > 16<<10 {
		t.Fatalf("resident bytes %d exceed the 16 KiB budget", st.Bytes)
	}
	// An oversize body (bigger than the whole budget) is served but
	// never admitted.
	big := []byte(strings.Repeat("y", 17<<10))
	c.Put(999999, big)
	if _, ok := c.Get(999999); ok {
		t.Fatalf("oversize body was admitted to the cache")
	}
	if st = c.Stats(); st.Oversize == 0 {
		t.Fatalf("oversize counter not incremented")
	}
}
