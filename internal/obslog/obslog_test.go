package obslog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// fakeNow hands out strictly increasing deterministic timestamps.
func fakeNow(start time.Time, step time.Duration) func() time.Time {
	t := start
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

// TestJournalSchema: every line is one JSON object carrying the event
// type as msg plus run/src/seq, the shard association only when given,
// and no slog level noise.
func TestJournalSchema(t *testing.T) {
	var buf bytes.Buffer
	j := NewWithOptions(Options{
		Out: &buf, Run: "r1", Source: "coord",
		Now: fakeNow(time.Unix(1000, 0).UTC(), time.Millisecond),
	})
	j.Emit(RunStarted, Fields{Detail: "MP/Relaxed"})
	j.EmitShard(ShardLeased, 0, Fields{Worker: "A", Span: "r1/s0/a1", Attempt: 1})
	j.EmitShard(ShardCompleted, 3, Fields{Worker: "B", States: 42, Ms: 7})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	for _, k := range []string{"time", "msg", "run", "src", "seq"} {
		if _, ok := first[k]; !ok {
			t.Errorf("line 0 missing %q: %s", k, lines[0])
		}
	}
	if _, ok := first["level"]; ok {
		t.Errorf("line 0 carries slog level noise: %s", lines[0])
	}
	if first["msg"] != string(RunStarted) {
		t.Errorf("msg = %v, want %q", first["msg"], RunStarted)
	}
	if _, ok := first["shard"]; ok {
		t.Errorf("unsharded event grew a shard field: %s", lines[0])
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	// Shard 0 is a valid ID and must survive the zero value.
	if v, ok := second["shard"]; !ok || v != float64(0) {
		t.Errorf("shard 0 event lost its shard field: %s", lines[1])
	}
	if second["span"] != "r1/s0/a1" || second["worker"] != "A" || second["attempt"] != float64(1) {
		t.Errorf("lease fields wrong: %s", lines[1])
	}
}

// TestJournalSetRun: a worker's journal adopts the coordinator's run ID
// mid-stream (registration hands it over).
func TestJournalSetRun(t *testing.T) {
	var buf bytes.Buffer
	j := New(&buf, "local", "w1")
	j.Emit(WorkerRegistered, Fields{})
	j.SetRun("r9")
	j.Emit(ShardStarted, Fields{Span: "r9/s0/a1"})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.Contains(lines[0], `"run":"local"`) || !strings.Contains(lines[1], `"run":"r9"`) {
		t.Fatalf("run ID not adopted:\n%s", buf.String())
	}
	if j.Run() != "r9" {
		t.Fatalf("Run() = %q, want r9", j.Run())
	}
}

// TestJournalTail: the ring keeps the most recent lines, oldest first,
// once more events than it holds have wrapped it.
func TestJournalTail(t *testing.T) {
	j := New(nil, "", "x")
	n := len(j.sink.ring)
	for i := 0; i < n+6; i++ {
		j.EmitShard(ShardRequeued, i, Fields{})
	}
	var buf bytes.Buffer
	if err := j.WriteTail(&buf, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != n {
		t.Fatalf("tail kept %d lines, want %d", len(lines), n)
	}
	for i, shard := range map[int]int{0: 6, 1: 7, n - 1: n + 5} {
		if want := fmt.Sprintf(`"shard":%d}`, shard); !strings.Contains(lines[i], want) {
			t.Errorf("tail[%d] = %s, want %s", i, lines[i], want)
		}
	}
	buf.Reset()
	if err := j.WriteTail(&buf, 2); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("bounded tail wrote %d lines, want 2", got)
	}
}

// TestMergeDeterministic: merging journals from several sources yields a
// byte-stable timeline regardless of input order, keyed by
// (time, src, seq).
func TestMergeDeterministic(t *testing.T) {
	start := time.Unix(2000, 0).UTC()
	mk := func(src string, step time.Duration) *bytes.Buffer {
		var buf bytes.Buffer
		j := NewWithOptions(Options{Out: &buf, Run: "r1", Source: src, Now: fakeNow(start, step)})
		for i := 0; i < 5; i++ {
			j.EmitShard(ShardCompleted, i, Fields{Worker: src})
		}
		return &buf
	}
	a, b, c := mk("a", 3*time.Millisecond), mk("b", 2*time.Millisecond), mk("c", 3*time.Millisecond)

	m1, err := MergeLines(bytes.NewReader(a.Bytes()), bytes.NewReader(b.Bytes()), bytes.NewReader(c.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MergeLines(bytes.NewReader(c.Bytes()), bytes.NewReader(a.Bytes()), bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.Join(m1, nil), bytes.Join(m2, nil)) {
		t.Fatal("merge order depends on input order")
	}
	// a and c tie on every timestamp; src must break the tie a-before-c.
	joined := string(bytes.Join(m1, nil))
	if strings.Index(joined, `"src":"a"`) > strings.Index(joined, `"src":"c"`) {
		t.Errorf("equal-time events not ordered by src:\n%s", joined)
	}
	if len(m1) != 15 {
		t.Fatalf("merged %d lines, want 15", len(m1))
	}
}

// TestMergeRejectsGarbage: a non-journal line is a loud error, not a
// silent drop.
func TestMergeRejectsGarbage(t *testing.T) {
	if _, err := MergeLines(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage line merged silently")
	}
}

// TestConsoleInterleave: journal lines written through a Console never
// tear the status line — each event lands whole on its own line and the
// status is redrawn after it.
func TestConsoleInterleave(t *testing.T) {
	var buf bytes.Buffer
	c := NewConsole(&buf)
	c.SetStatus("42 behaviors | 100 states")
	c.Write([]byte(`{"msg":"shard.leased"}` + "\n")) //nolint:errcheck
	c.SetStatus("43 behaviors | 120 states")
	c.ClearStatus()

	out := buf.String()
	// The event line must appear intact, bracketed by a clear and a
	// redraw of the status.
	if !strings.Contains(out, `{"msg":"shard.leased"}`+"\n") {
		t.Fatalf("event line torn: %q", out)
	}
	i := strings.Index(out, `{"msg"`)
	if !strings.Contains(out[:i], "\r") {
		t.Errorf("status not cleared before event: %q", out[:i])
	}
	if !strings.Contains(out[i:], "42 behaviors") {
		t.Errorf("status not redrawn after event: %q", out[i:])
	}
	if !strings.HasSuffix(out, "\r") {
		t.Errorf("ClearStatus left the line dirty: %q", out)
	}
}

// TestConsoleAddsNewline: a payload without a trailing newline still
// scrolls — the console terminates it so the redrawn status does not
// glue onto it.
func TestConsoleAddsNewline(t *testing.T) {
	var buf bytes.Buffer
	c := NewConsole(&buf)
	c.SetStatus("live")
	c.Write([]byte("diagnostic")) //nolint:errcheck
	if !strings.Contains(buf.String(), "diagnostic\n") {
		t.Fatalf("unterminated payload not newline-fixed: %q", buf.String())
	}
}

// TestDisabledJournalZeroAlloc: emitting against a nil journal (the
// not-configured path every engine call sees) allocates nothing.
func TestDisabledJournalZeroAlloc(t *testing.T) {
	var j *Journal
	n := testing.AllocsPerRun(1000, func() {
		j.EmitShard(ShardCompleted, 3, Fields{Worker: "w", States: 10, Ms: 5})
		j.Emit(RunDegraded, Fields{Reason: "max-behaviors"})
	})
	if n != 0 {
		t.Fatalf("nil-journal emit allocates %v per run, want 0", n)
	}
}
