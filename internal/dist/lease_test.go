package dist

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"storeatomicity/internal/core"
)

// fakeClock is a hand-cranked clock for deterministic lease tests: no
// sockets, no sleeps, no real time.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }
func (f *fakeClock) set(t time.Time)         { f.t = t }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func testJob() JobSpec                       { return JobSpec{Test: "MP", Model: "Relaxed"} }
func lease(t *testing.T, c *Coordinator, w string) *LeaseResponse {
	t.Helper()
	resp, err := c.handleLease(&LeaseRequest{Worker: w})
	if err != nil {
		t.Fatalf("lease(%s): %v", w, err)
	}
	return resp
}

// newTestCoordinator builds an unstarted coordinator on a fake clock;
// tests drive handleLease/handleComplete/sweep directly.
func newTestCoordinator(t *testing.T, cfg Config) (*Coordinator, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	cfg.now = clk.now
	if cfg.Job.Test == "" {
		cfg.Job = testJob()
	}
	c, err := NewCoordinator(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, clk
}

// runShardFor replays and enumerates a leased shard the way a worker
// would, returning the completion request body.
func runShardFor(t *testing.T, c *Coordinator, w string, resp *LeaseResponse) *CompleteRequest {
	t.Helper()
	res, err := core.EnumerateShard(context.Background(), c.prog, c.pol, c.opts, resp.Path, 1)
	if err != nil {
		t.Fatalf("shard %d: %v", resp.Shard, err)
	}
	req := &CompleteRequest{Worker: w, Shard: resp.Shard, StatesExplored: res.Stats.StatesExplored}
	for _, e := range res.Executions {
		req.Completed = append(req.Completed, e.Path)
	}
	return req
}

// TestLeaseExpiryReassignIdempotent is the acceptance-criterion unit
// test: worker A leases a shard, goes silent past the lease, the sweep
// returns the shard to the queue, worker B leases and completes it, and
// A's late submission is absorbed as a duplicate — the shard counted
// exactly once, the final merge exact.
func TestLeaseExpiryReassignIdempotent(t *testing.T) {
	cfg := Config{Lease: 10 * time.Second, Shards: 4, WorkerDeadline: -1}
	c, clk := newTestCoordinator(t, cfg)
	if len(c.shards) < 2 {
		t.Fatalf("partition produced %d shards; want >= 2", len(c.shards))
	}
	partExplored := c.explored

	respA := lease(t, c, "A")
	if respA.Wait || respA.Done {
		t.Fatalf("A got no shard: %+v", respA)
	}
	shardID := respA.Shard

	// A goes silent; the lease expires and the sweep requeues the shard.
	clk.advance(11 * time.Second)
	c.sweep(clk.now())
	c.mu.Lock()
	st := c.shards[shardID].status
	c.mu.Unlock()
	if st != shardQueued {
		t.Fatalf("expired shard %d not requeued (status %v)", shardID, st)
	}

	// B now gets the same shard (FIFO queue: the requeued shard is
	// behind the still-fresh ones, so B works through those first).
	var respB *LeaseResponse
	for i := 0; i < len(c.shards)+1; i++ {
		r := lease(t, c, "B")
		if r.Wait || r.Done {
			t.Fatalf("B ran out of leases before shard %d reappeared", shardID)
		}
		if r.Shard == shardID {
			respB = r
			break
		}
		if _, err := c.handleComplete(runShardFor(t, c, "B", r)); err != nil {
			t.Fatal(err)
		}
	}
	if respB == nil {
		t.Fatalf("reassigned shard %d never re-leased", shardID)
	}

	// A finishes late — after expiry, before B — and must win (first
	// completion wins; the work is deterministic so either winner is
	// byte-identical).
	reqA := runShardFor(t, c, "A", respA)
	ackA, err := c.handleComplete(reqA)
	if err != nil {
		t.Fatal(err)
	}
	if !ackA.OK || ackA.Duplicate {
		t.Fatalf("A's late completion not accepted first: %+v", ackA)
	}

	// B's completion of the same shard is a duplicate, not a recount.
	reqB := runShardFor(t, c, "B", respB)
	ackB, err := c.handleComplete(reqB)
	if err != nil {
		t.Fatal(err)
	}
	if !ackB.OK || !ackB.Duplicate {
		t.Fatalf("B's completion not flagged duplicate: %+v", ackB)
	}

	// The contested shard is counted exactly once: the exploration total
	// is the partition's plus each done shard's, with no extra term for
	// B's discarded resubmission.
	c.mu.Lock()
	wantExplored := partExplored
	for _, sh := range c.shards {
		if sh.status == shardDone {
			wantExplored += sh.explored
		}
	}
	if c.explored != wantExplored {
		t.Errorf("explored %d, want %d — the duplicate submission was double-counted", c.explored, wantExplored)
	}
	if c.shards[shardID].status != shardDone {
		t.Fatalf("contested shard %d not done", shardID)
	}
	c.mu.Unlock()

	// Finishing the rest produces the exact single-process set.
	for {
		r := lease(t, c, "B")
		if r.Done {
			break
		}
		if r.Wait {
			t.Fatal("coordinator stuck waiting with no outstanding leases")
		}
		if _, err := c.handleComplete(runShardFor(t, c, "B", r)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSequential(t, c, res)
}

// assertMatchesSequential compares a coordinator result with the
// sequential oracle for the same job.
func assertMatchesSequential(t *testing.T, c *Coordinator, res *core.Result) {
	t.Helper()
	base, err := core.Enumerate(context.Background(), c.prog, c.pol, c.opts)
	if err != nil {
		t.Fatal(err)
	}
	if Canonical(res) != Canonical(base) {
		t.Errorf("merged set differs from sequential oracle:\n got: %s\nwant: %s",
			Canonical(res), Canonical(base))
	}
}

// TestHeartbeatRenewsLease: a heartbeating worker's lease never
// expires, however far past the nominal lease duration the clock runs.
func TestHeartbeatRenewsLease(t *testing.T) {
	c, clk := newTestCoordinator(t, Config{Lease: 10 * time.Second, Shards: 4, WorkerDeadline: -1})
	resp := lease(t, c, "A")
	for i := 0; i < 10; i++ {
		clk.advance(8 * time.Second)
		if _, err := c.handleHeartbeat(&HeartbeatRequest{Worker: "A"}); err != nil {
			t.Fatal(err)
		}
		c.sweep(clk.now())
	}
	c.mu.Lock()
	st, owner := c.shards[resp.Shard].status, c.shards[resp.Shard].owner
	c.mu.Unlock()
	if st != shardLeased || owner != "A" {
		t.Fatalf("heartbeating worker lost its lease: status %v owner %q", st, owner)
	}
}

// TestWorkerDeadlineDegrades: a fleet that never comes back trips the
// worker deadline and the run degrades to a structured Incomplete whose
// frontier is the pending shards — not a hang, not a silent partial.
func TestWorkerDeadlineDegrades(t *testing.T) {
	c, clk := newTestCoordinator(t, Config{Lease: 10 * time.Second, Shards: 4, WorkerDeadline: 30 * time.Second})
	resp := lease(t, c, "A")
	if _, err := c.handleComplete(runShardFor(t, c, "A", resp)); err != nil {
		t.Fatal(err)
	}
	// Fleet goes silent forever.
	clk.advance(31 * time.Second)
	c.sweep(clk.now())

	res, err := c.Wait(context.Background())
	if !errors.Is(err, core.ErrIncomplete) {
		t.Fatalf("want ErrIncomplete, got %v", err)
	}
	var ie *core.IncompleteError
	if !errors.As(err, &ie) {
		t.Fatalf("want *core.IncompleteError, got %T", err)
	}
	rep := ie.Report
	if rep.Reason != core.ReasonWorkersLost {
		t.Errorf("reason %q, want %q", rep.Reason, core.ReasonWorkersLost)
	}
	c.mu.Lock()
	pending := c.pendingLocked()
	c.mu.Unlock()
	if rep.StatesPending != pending || len(rep.Frontier) != pending {
		t.Errorf("report pending %d/frontier %d, want %d", rep.StatesPending, len(rep.Frontier), pending)
	}
	// The completed shard's behaviors are still in the partial merge.
	if len(res.Executions) == 0 {
		t.Error("degraded result lost the completed shard's behaviors")
	}
}

// TestFingerprintExchangeBatches: fingerprints from a clean completion
// flow to later leases in batches of at most 8192, and the sequence
// cursor advances so nothing is re-shipped.
func TestFingerprintExchangeBatches(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{Lease: 10 * time.Second, Shards: 4, WorkerDeadline: -1})
	respA := lease(t, c, "A")
	reqA := runShardFor(t, c, "A", respA)
	const sent = 8192 + 5
	for h := uint64(1); h <= sent; h++ {
		reqA.Fingerprints = append(reqA.Fingerprints, h)
	}
	if _, err := c.handleComplete(reqA); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	var batches []int
	seq := 0
	for i := 0; i < 4; i++ {
		resp, err := c.handleLease(&LeaseRequest{Worker: "B", FpSeq: seq})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range resp.Fingerprints {
			if seen[h] {
				t.Fatalf("fingerprint %d shipped twice", h)
			}
			seen[h] = true
		}
		batches = append(batches, len(resp.Fingerprints))
		seq = resp.FpNext
	}
	if !reflect.DeepEqual(batches, []int{8192, 5, 0, 0}) || len(seen) != sent {
		t.Fatalf("exchange batches %v shipped %d distinct fingerprints, want [8192 5 0 0] and %d", batches, len(seen), sent)
	}
}

// TestLeaseRefusesProgramHashSkew: a stale worker (registered with a
// previous coordinator on the same address, or built from different
// source) is refused at lease and completion time, not just at
// registration — its shards and submissions never touch the merge.
func TestLeaseRefusesProgramHashSkew(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{Lease: 10 * time.Second, Shards: 4, WorkerDeadline: -1})
	if _, err := c.handleLease(&LeaseRequest{Worker: "stale", ProgramHash: 0xbad}); err == nil {
		t.Error("lease with skewed program hash accepted")
	}
	if _, err := c.handleComplete(&CompleteRequest{Worker: "stale", Shard: 0, ProgramHash: 0xbad}); err == nil {
		t.Error("completion with skewed program hash accepted")
	}
	// The honest hash still works.
	if _, err := c.handleLease(&LeaseRequest{Worker: "ok", ProgramHash: c.cfg.Job.ProgramHash}); err != nil {
		t.Errorf("lease with matching hash refused: %v", err)
	}
}

// TestIncompleteShardDegradesRun: a worker-reported budget stop latches
// coordinator degradation — re-running the same shard elsewhere would
// hit the same budget, so honesty beats retry.
func TestIncompleteShardDegradesRun(t *testing.T) {
	c, _ := newTestCoordinator(t, Config{Lease: 10 * time.Second, Shards: 4, WorkerDeadline: -1})
	resp := lease(t, c, "A")
	req := &CompleteRequest{
		Worker: "A", Shard: resp.Shard,
		Incomplete: &core.Incomplete{Reason: core.ReasonMaxBehaviors, StatesPending: 3},
	}
	if _, err := c.handleComplete(req); err != nil {
		t.Fatal(err)
	}
	// Drain the rest.
	for {
		r := lease(t, c, "A")
		if r.Done {
			break
		}
		if _, err := c.handleComplete(runShardFor(t, c, "A", r)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.Wait(context.Background())
	if !errors.Is(err, core.ErrIncomplete) {
		t.Fatalf("want degraded run, got %v", err)
	}
}
