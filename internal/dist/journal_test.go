package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"storeatomicity/internal/obslog"
	"storeatomicity/internal/telemetry"
)

// scriptedIncident drives a coordinator plus two simulated workers
// through a fixed incident sequence — a worker goes silent mid-lease,
// its shard expires and is reassigned, the original holder completes
// late and wins, the reassignee's submission is rejected as a duplicate
// — entirely under a fake clock, with every process journaling. It
// returns the three journals merged into one timeline, plus the ledger
// snapshotted at the moment the silent worker was declared lost and at
// the end.
//
// The worker-side events are emitted by the test exactly where
// Worker.Run emits them (started before the shard, completed after,
// stamped with the lease's span ID); the protocol handlers and sweep
// are the real ones.
func scriptedIncident(t *testing.T) (merged []byte, mid, final StatusResponse) {
	t.Helper()
	clk := newFakeClock()
	var bufC, buf1, buf2 bytes.Buffer
	jC := obslog.NewWithOptions(obslog.Options{Out: &bufC, Source: "coord", Now: clk.now})
	j1 := obslog.NewWithOptions(obslog.Options{Out: &buf1, Source: "w1", Now: clk.now})
	j2 := obslog.NewWithOptions(obslog.Options{Out: &buf2, Source: "w2", Now: clk.now})

	// One clock drives the coordinator AND the journals, so timestamps —
	// and therefore the merge order — are fully scripted.
	cfg := Config{Lease: 10 * time.Second, Shards: 4, WorkerDeadline: -1, Journal: jC, Job: testJob()}
	cfg.now = clk.now
	c, err := NewCoordinator(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.shards) < 2 {
		t.Fatalf("partition produced %d shards; want >= 2", len(c.shards))
	}

	workers := map[string]*obslog.Journal{"w1": j1, "w2": j2}
	for _, id := range []string{"w1", "w2"} {
		reg, err := c.handleRegister(&RegisterRequest{Worker: id})
		if err != nil {
			t.Fatal(err)
		}
		if reg.RunID != c.RunID() {
			t.Fatalf("register handed run %q, coordinator owns %q", reg.RunID, c.RunID())
		}
		workers[id].SetRun(reg.RunID)
		workers[id].Emit(obslog.WorkerRegistered, obslog.Fields{Worker: id})
	}

	start := func(w string, l *LeaseResponse) {
		workers[w].EmitShard(obslog.ShardStarted, l.Shard, obslog.Fields{
			Worker: w, Span: l.SpanID, Attempt: l.Attempt,
		})
	}
	complete := func(w string, l *LeaseResponse) *CompleteResponse {
		req := runShardFor(t, c, w, l)
		req.SpanID = l.SpanID
		workers[w].EmitShard(obslog.ShardCompleted, l.Shard, obslog.Fields{
			Worker: w, Span: l.SpanID, Count: len(req.Completed), States: req.StatesExplored,
		})
		ack, err := c.handleComplete(req)
		if err != nil {
			t.Fatal(err)
		}
		return ack
	}

	// w1 takes the first shard and goes silent mid-lease.
	clk.advance(time.Second)
	l1 := lease(t, c, "w1")
	start("w1", l1)
	contested := l1.Shard

	// w2 drains every other shard cleanly.
	clk.advance(time.Second)
	for i := 0; i < len(c.shards)-1; i++ {
		l := lease(t, c, "w2")
		if l.Wait || l.Done {
			t.Fatalf("w2 starved on shard %d: %+v", i, l)
		}
		start("w2", l)
		clk.advance(100 * time.Millisecond)
		if ack := complete("w2", l); !ack.OK || ack.Duplicate {
			t.Fatalf("w2 completion rejected: %+v", ack)
		}
	}

	// w1 is now silent past the lease AND past the worker TTL: the first
	// sweep expires the lease (and classifies w1 missed), the next one
	// declares it lost.
	clk.advance(11 * time.Second)
	c.sweep(clk.now())
	clk.advance(100 * time.Millisecond)
	c.sweep(clk.now())
	mid = c.Status()

	// w2 picks the contested shard up (attempt 2)...
	l2 := lease(t, c, "w2")
	if l2.Shard != contested || l2.Attempt != 2 {
		t.Fatalf("reassignment leased shard %d attempt %d; want shard %d attempt 2",
			l2.Shard, l2.Attempt, contested)
	}
	start("w2", l2)

	// ...but w1 wakes up and submits first (first-wins), so w2's
	// submission bounces as a duplicate.
	clk.advance(time.Second)
	if ack := complete("w1", l1); !ack.OK || ack.Duplicate {
		t.Fatalf("w1's late completion not accepted first: %+v", ack)
	}
	clk.advance(time.Second)
	if ack := complete("w2", l2); !ack.Duplicate {
		t.Fatalf("w2's submission for the contested shard not marked duplicate: %+v", ack)
	}
	final = c.Status()

	out, err := obslog.MergeLines(&bufC, &buf1, &buf2)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return bytes.Join(out, nil), mid, final
}

// TestJournalScriptedIncidentDeterministic runs the incident script
// twice from scratch and demands byte-identical merged journals — the
// determinism the fake clock, the per-journal sequence numbers, and the
// (time, src, seq) merge order exist to provide — then checks the
// timeline actually tells the incident's story and that the /status
// ledger agrees with it.
func TestJournalScriptedIncidentDeterministic(t *testing.T) {
	merged1, mid, final := scriptedIncident(t)
	merged2, _, _ := scriptedIncident(t)
	if !bytes.Equal(merged1, merged2) {
		t.Fatalf("two identical scripted runs merged to different journals:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", merged1, merged2)
	}

	for _, ev := range []obslog.Type{
		obslog.RunStarted, obslog.RunPartitioned, obslog.RunFinished,
		obslog.WorkerRegistered, obslog.WorkerHeartbeatMissed, obslog.WorkerLost,
		obslog.ShardLeased, obslog.ShardStarted, obslog.ShardCompleted,
		obslog.ShardLeaseExpired, obslog.ShardRequeued, obslog.ShardDuplicate,
	} {
		if !bytes.Contains(merged1, []byte(fmt.Sprintf("%q", string(ev)))) {
			t.Errorf("merged journal missing %s event", ev)
		}
	}

	// Mid-run ledger: the silent worker is lost, the contested shard is
	// back in the queue after one attempt, everything else is done.
	if w := workerRow(mid, "w1"); w == nil || w.State != "lost" {
		t.Errorf("mid-run ledger: w1 = %+v; want state lost", workerRow(mid, "w1"))
	}
	if mid.Pending != 1 || mid.Completed != mid.Shards-1 {
		t.Errorf("mid-run ledger: %d/%d done, %d pending; want all but the contested shard done",
			mid.Completed, mid.Shards, mid.Pending)
	}

	// Final ledger: done, every shard done, the contested shard fought
	// over twice, and the late submission revived w1.
	if !final.Done || final.Completed != final.Shards || final.DegradedReason != "" {
		t.Errorf("final ledger not a clean finish: %+v", final)
	}
	maxAttempts := 0
	for _, row := range final.ShardTable {
		if row.State != "done" {
			t.Errorf("final ledger: shard %d state %s; want done", row.ID, row.State)
		}
		if row.Attempts > maxAttempts {
			maxAttempts = row.Attempts
		}
	}
	if maxAttempts < 2 {
		t.Errorf("final ledger: max shard attempts %d; want >= 2 for the contested shard", maxAttempts)
	}
	if w := workerRow(final, "w1"); w == nil || w.State != "live" {
		t.Errorf("final ledger: w1 = %+v; want revived to live by its late submission", workerRow(final, "w1"))
	}

	// The journal's completion count must agree with the ledger: one
	// coordinator shard.completed per shard, duplicates excluded.
	coordCompleted := 0
	for _, line := range bytes.Split(merged1, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var e struct {
			Msg string `json:"msg"`
			Src string `json:"src"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("merged journal line not JSON: %q: %v", line, err)
		}
		if e.Src == "coord" && e.Msg == string(obslog.ShardCompleted) {
			coordCompleted++
		}
	}
	if coordCompleted != final.Completed {
		t.Errorf("journal records %d coordinator completions, ledger says %d", coordCompleted, final.Completed)
	}
}

func workerRow(st StatusResponse, id string) *WorkerLedger {
	for i := range st.WorkerTable {
		if st.WorkerTable[i].ID == id {
			return &st.WorkerTable[i]
		}
	}
	return nil
}

// TestObservabilityEndpoints runs a real coordinator + worker over HTTP
// and checks the three GET endpoints: /status serves the run ledger,
// /journal the NDJSON tail (every line stamped with the run ID), and
// /metrics the Prometheus exposition of the coordinator's registry.
func TestObservabilityEndpoints(t *testing.T) {
	var jbuf bytes.Buffer
	journal := obslog.New(&jbuf, "", "coord")
	reg := telemetry.NewRegistry()
	c, err := NewCoordinator(context.Background(), Config{
		Listen:         "127.0.0.1:0",
		Job:            testJob(),
		Shards:         4,
		WorkerDeadline: time.Minute,
		Metrics:        telemetry.NewDistMetrics(reg),
		Journal:        journal,
		Fleet:          telemetry.NewFleetMetrics(reg),
		Registry:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	w := NewWorker(WorkerConfig{Coord: "http://" + c.Addr(), ID: "w0"})
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if _, err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + c.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	var st StatusResponse
	if err := json.Unmarshal(get(PathStatus), &st); err != nil {
		t.Fatalf("/status not JSON: %v", err)
	}
	if !st.Done || st.RunID == "" || len(st.ShardTable) != st.Shards {
		t.Errorf("/status ledger incomplete: %+v", st)
	}
	if w := workerRow(st, "w0"); w == nil || w.ShardsDone != st.Completed {
		t.Errorf("/status worker row = %+v; want w0 credited with all %d completions", w, st.Completed)
	}

	lines := bytes.Split(bytes.TrimSpace(get(PathJournal+"?n=5")), []byte("\n"))
	if len(lines) == 0 || len(lines) > 5 {
		t.Fatalf("/journal?n=5 returned %d lines", len(lines))
	}
	for _, line := range lines {
		var e struct {
			Run string `json:"run"`
			Msg string `json:"msg"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("/journal line not JSON: %q: %v", line, err)
		}
		if e.Run != st.RunID {
			t.Errorf("/journal line runs as %q, /status says %q", e.Run, st.RunID)
		}
	}

	metrics := string(get(PathMetrics))
	for _, want := range []string{"# TYPE dist_leases_granted_total counter", "dist_fleet_snapshot_workers"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHeartbeatSnapshotAggregation: heartbeat-borne worker snapshots
// land in the worker ledger rows and are summed into the fleet gauges,
// and a worker declared lost stops contributing.
func TestHeartbeatSnapshotAggregation(t *testing.T) {
	reg := telemetry.NewRegistry()
	fleet := telemetry.NewFleetMetrics(reg)
	c, clk := newTestCoordinator(t, Config{
		Lease: 10 * time.Second, Shards: 4, WorkerDeadline: -1, Fleet: fleet,
	})
	for _, id := range []string{"w1", "w2"} {
		if _, err := c.handleRegister(&RegisterRequest{Worker: id}); err != nil {
			t.Fatal(err)
		}
	}
	hb := func(id string, explored, retries int64) {
		_, err := c.handleHeartbeat(&HeartbeatRequest{Worker: id, Metrics: telemetry.Snapshot{
			"enum_states_explored_total": explored,
			"dist_retries_total":         retries,
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	hb("w1", 100, 3)
	hb("w2", 40, 1)
	if got := reg.Snapshot()["dist_fleet_states_explored"]; got != 140 {
		t.Errorf("dist_fleet_states_explored = %d after two heartbeats; want 140", got)
	}
	if w := workerRow(c.Status(), "w1"); w == nil || w.Explored != 100 || w.Retries != 3 {
		t.Errorf("w1 ledger row = %+v; want explored 100, retries 3", w)
	}

	// w1 goes silent past the TTL: two sweeps classify it missed then
	// lost, and the aggregation drops to w2's contribution alone.
	clk.advance(7 * time.Second)
	hb("w2", 50, 1)
	clk.advance(4 * time.Second)
	c.sweep(clk.now())
	clk.advance(100 * time.Millisecond)
	c.sweep(clk.now())
	if w := workerRow(c.Status(), "w1"); w == nil || w.State != "lost" {
		t.Fatalf("w1 = %+v; want lost", w)
	}
	if got := reg.Snapshot()["dist_fleet_states_explored"]; got != 50 {
		t.Errorf("dist_fleet_states_explored = %d with w1 lost; want 50 (w2 only)", got)
	}
	if got := reg.Snapshot()["dist_fleet_snapshot_workers"]; got != 1 {
		t.Errorf("dist_fleet_snapshot_workers = %d with w1 lost; want 1", got)
	}
}
