package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"storeatomicity/internal/cli"
	"storeatomicity/internal/core"
	"storeatomicity/internal/dist"
	"storeatomicity/internal/telemetry"
)

// fleet-jobs: closed loop, one distributed job at a time. Each job is a
// coordinator with 16 shards plus two in-process workers over loopback
// HTTP. Jobs are small, so partition, lease, replay, submit and merge
// dominate and the engine does little.

// fleetPairs are the heaviest registry (test, model) pairs; dist.JobSpec
// resolves registry names only.
var fleetPairs = [][2]string{
	{"SB3W", "TSO"}, {"SB3W", "Relaxed"},
	{"Figure10", "TSO"}, {"Figure10", "Relaxed"},
	{"Figure5", "TSO"}, {"Figure5", "Relaxed"},
	{"IRIW", "TSO"}, {"IRIW", "Relaxed"},
	{"Figure8", "TSO"}, {"Figure8", "Relaxed"},
}

const (
	fleetShards  = 16
	fleetWorkers = 2
)

// genFleetOrder is one cycle of job pairs in seeded order; jobs run the
// cycle round-robin.
func genFleetOrder(seed int64, pairs [][2]string) [][2]string {
	order := append([][2]string(nil), pairs...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

type fleetJobs struct {
	seed  int64
	pairs [][2]string
	tally *tally

	order  [][2]string
	specs  []dist.JobSpec
	want   []string // canonical sequential behaviour set per order slot
	states []int    // sequential states explored per order slot
	lanes  [fleetWorkers]*callRecorder
	enum   *telemetry.EnumMetrics // worker engine metrics, traced phases only

	// traced-phase tallies
	partitionMs, mergeMs []float64
	shards, mergedStates int
	seqStates            int
	retries0             int64
}

func newFleetJobs(cfg config, t *tally) workload {
	w := &fleetJobs{seed: cfg.seed, pairs: fleetPairs, tally: t}
	if cfg.tiny {
		w.pairs = [][2]string{{"IRIW", "TSO"}, {"Figure5", "Relaxed"}}
	}
	return w
}

// setup resolves every pair, computes its canonical behaviour set once
// with core.Enumerate (the oracle for every job), and warms the fleet
// path with one job per pair.
func (w *fleetJobs) setup(ctx context.Context) error {
	w.order = genFleetOrder(w.seed, w.pairs)
	w.specs, w.want, w.states = nil, nil, nil
	for _, p := range w.order {
		spec := dist.JobSpec{Test: p[0], Model: p[1], Prune: cli.PruneAll, COW: "on", FrontierResident: "auto"}
		tc, m, opts, err := spec.Resolve()
		if err != nil {
			return err
		}
		res, err := core.Enumerate(ctx, tc.Build(), m.Policy, opts)
		if err != nil {
			return fmt.Errorf("oracle %s/%s: %w", p[0], p[1], err)
		}
		w.specs = append(w.specs, spec)
		w.want = append(w.want, dist.Canonical(res))
		w.states = append(w.states, res.Stats.StatesExplored)
	}
	for k := range w.lanes {
		w.lanes[k] = newCallRecorder(k + 1)
	}
	for i := range w.order {
		res, err := w.job(ctx, i, nil, 0)
		if err != nil {
			return fmt.Errorf("warm-up %s/%s: %w", w.order[i][0], w.order[i][1], err)
		}
		if got := dist.Canonical(res); got != w.want[i] {
			return fmt.Errorf("warm-up %s/%s: merged set differs from core.Enumerate", w.order[i][0], w.order[i][1])
		}
	}
	return nil
}

// job runs one distributed enumeration of order slot i%len(order) and
// returns the merged result. Spans go to tr under parent root.
func (w *fleetJobs) job(ctx context.Context, i int, tr *tracer, root int) (*core.Result, error) {
	slot := i % len(w.order)
	partStart := time.Now()
	c, err := dist.NewCoordinator(ctx, dist.Config{Listen: "127.0.0.1:0", Job: w.specs[slot], Shards: fleetShards})
	partEnd := time.Now()
	tr.add(tr.reserve(), "dist.partition", 0, i, root, partStart, partEnd)
	if err != nil {
		return nil, err
	}
	waitID := tr.reserve()
	if err := c.Start(); err != nil {
		return nil, err
	}
	jobCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	errs := make([]error, fleetWorkers)
	for k, rec := range w.lanes {
		rec.startJob(tr, i, waitID)
		wg.Add(1)
		go func(k int, rec *callRecorder) {
			defer wg.Done()
			errs[k] = dist.NewWorker(dist.WorkerConfig{
				Coord:   "http://" + c.Addr(),
				ID:      fmt.Sprintf("w%d", k),
				Seed:    w.seed + int64(k),
				Client:  rec.client,
				Metrics: rec.met,
				Enum:    w.enum,
			}).Run(jobCtx)
		}(k, rec)
	}
	res, err := c.Wait(ctx)
	waitEnd := time.Now()
	var lastAck time.Time
	for _, rec := range w.lanes {
		if at := rec.endJob(waitEnd); at.After(lastAck) {
			lastAck = at
		}
	}
	if !lastAck.IsZero() {
		tr.add(tr.reserve(), "dist.merge", 0, i, waitID, lastAck, waitEnd)
	}
	tr.add(waitID, "dist.wait", 0, i, root, partEnd, waitEnd)

	downStart := time.Now()
	cancel()
	wg.Wait()
	// The workers' side closes first, with a reset: see newCallRecorder.
	for _, rec := range w.lanes {
		rec.transport.CloseIdleConnections()
	}
	cerr := c.Close()
	tr.add(tr.reserve(), "dist.teardown", 0, i, root, downStart, time.Now())

	if tr != nil {
		w.partitionMs = append(w.partitionMs, float64(partEnd.Sub(partStart).Nanoseconds())/1e6)
		if !lastAck.IsZero() {
			w.mergeMs = append(w.mergeMs, float64(waitEnd.Sub(lastAck).Nanoseconds())/1e6)
		}
		w.shards += c.Status().Shards
	}
	if err != nil {
		return nil, err
	}
	for k, werr := range errs {
		// A worker still waiting for a lease when the merge finished is
		// stopped by cancellation; any other error fails the job.
		if werr != nil && !errors.Is(werr, context.Canceled) {
			return nil, fmt.Errorf("worker %d: %w", k, werr)
		}
	}
	return res, cerr
}

func (w *fleetJobs) run(ctx context.Context, ph *phase) {
	w.partitionMs, w.mergeMs, w.shards, w.mergedStates, w.seqStates = nil, nil, 0, 0, 0
	w.retries0 = w.retries()
	w.enum = ph.enum
	for _, rec := range w.lanes {
		rec.resetPhase()
	}
	ph.closedLoop(1, func(i, root int) (func(), error) {
		res, err := w.job(ctx, i, ph.tr, root)
		if err != nil {
			return nil, err
		}
		return func() {
			slot := i % len(w.order)
			got := dist.Canonical(res)
			if got != w.want[slot] {
				w.tally.fail("job %d %s/%s: merged set differs from core.Enumerate", i, w.order[slot][0], w.order[slot][1])
			}
			w.mergedStates += res.Stats.StatesExplored
			w.seqStates += w.states[slot]
			ph.golden.add(i, got)
		}, nil
	})
}

func (w *fleetJobs) retries() int64 {
	var n int64
	for _, rec := range w.lanes {
		if rec.met != nil { // nil when telemetry is compiled out
			n += rec.met.Retries.Value()
		}
	}
	return n
}

func (w *fleetJobs) goldenOps() int { return len(w.order) }

func (w *fleetJobs) verify(context.Context) {}

// layers reports the protocol timings seen by the workers' transports
// and the coordinator calls, per job.
func (w *fleetJobs) layers(ph *phase, v values) {
	var register, lease, complete, compute []float64
	var calls, wire, waits, fingerprints float64
	var idle time.Duration
	for _, rec := range w.lanes {
		register = append(register, rec.register...)
		lease = append(lease, rec.lease...)
		complete = append(complete, rec.complete...)
		compute = append(compute, rec.compute...)
		calls += float64(rec.calls)
		wire += float64(rec.wire)
		waits += float64(rec.waits)
		fingerprints += float64(rec.fingerprints)
		idle += rec.idle
	}
	med := func(xs []float64) float64 { return median(append([]float64(nil), xs...)) }
	v["dist.partition_ms_p50"] = med(w.partitionMs)
	v["dist.register_us_p50"] = med(register)
	v["dist.lease_us_p50"] = med(lease)
	v["dist.complete_us_p50"] = med(complete)
	v["dist.shard_compute_ms_p50"] = med(compute)
	v["dist.merge_ms_p50"] = med(w.mergeMs)
	v["dist.wait_leases"] = ph.perOp(waits)
	v["dist.idle_ms_per_job"] = ph.perOp(float64(idle.Nanoseconds()) / 1e6)
	v["dist.shards_per_job"] = ph.perOp(float64(w.shards))
	v["dist.calls_per_job"] = ph.perOp(calls)
	v["dist.wire_kb_per_job"] = ph.perOp(wire / 1024)
	v["dist.fingerprints_exchanged"] = ph.perOp(fingerprints)
	v["dist.retries"] = float64(w.retries() - w.retries0)
	if w.seqStates > 0 {
		v["dist.state_overhead_ratio"] = float64(w.mergedStates) / float64(w.seqStates)
	}
	var computeS float64
	for _, ms := range compute {
		computeS += ms / 1e3
	}
	snap := ph.enum.Snapshot()
	coreLayer(v, snap, ph.ops, snap, ph.ops, computeS)
	w.tally.check(v["dist.retries"] == 0, "fleet-jobs: %v retried calls, want 0", v["dist.retries"])
}

func (w *fleetJobs) close() error { return nil }

// callRecorder wraps a worker's HTTP transport and times every protocol
// call from outside: the round trip of each register, lease, heartbeat
// and complete, the shard compute between a granted lease and the next
// complete, and idle time after a "wait" lease.
type callRecorder struct {
	lane      int
	transport *http.Transport
	client    *http.Client
	met       *telemetry.DistMetrics

	mu       sync.Mutex
	tr       *tracer
	op, span int
	leaseAt  time.Time // last granted lease, until its complete is sent
	waitAt   time.Time // last "wait" lease, until the next lease is sent
	lastAck  time.Time // last complete response this job

	register, lease, complete, compute []float64
	calls, wire, waits, fingerprints   int64
	idle                               time.Duration
}

// newCallRecorder builds the recorder of one worker lane. Its
// connections close with a reset (SO_LINGER 0) and are closed before the
// coordinator's: a run makes thousands of jobs, each on a fresh
// coordinator port, and orderly closes would leave every connection in
// TIME_WAIT for a minute. Tens of thousands of those slowed later runs
// by up to a third.
func newCallRecorder(lane int) *callRecorder {
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if tcp, ok := conn.(*net.TCPConn); ok {
			if err := tcp.SetLinger(0); err != nil {
				conn.Close()
				return nil, err
			}
		}
		return conn, err
	}
	r := &callRecorder{lane: lane, met: telemetry.NewDistMetrics(nil),
		transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true, DialContext: dial}}
	r.client = &http.Client{Timeout: 30 * time.Second, Transport: r}
	return r
}

// resetPhase clears the per-phase tallies.
func (r *callRecorder) resetPhase() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register, r.lease, r.complete, r.compute = nil, nil, nil, nil
	r.calls, r.wire, r.waits, r.fingerprints, r.idle = 0, 0, 0, 0, 0
}

// startJob points the recorder's spans at job op under parent span.
func (r *callRecorder) startJob(tr *tracer, op, span int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tr, r.op, r.span = tr, op, span
	r.leaseAt, r.waitAt, r.lastAck = time.Time{}, time.Time{}, time.Time{}
}

// endJob closes an open idle interval at the job's end and returns the
// time of the job's last complete acknowledgement.
func (r *callRecorder) endJob(at time.Time) time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.waitAt.IsZero() {
		r.idle += at.Sub(r.waitAt)
		r.waitAt = time.Time{}
	}
	return r.lastAck
}

func (r *callRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	start := time.Now()
	r.mu.Lock()
	tr, op, parent := r.tr, r.op, r.span
	if path == dist.PathComplete && !r.leaseAt.IsZero() {
		r.compute = append(r.compute, float64(start.Sub(r.leaseAt).Nanoseconds())/1e6)
		tr.add(tr.reserve(), "core.shard", r.lane, op, parent, r.leaseAt, start)
		r.leaseAt = time.Time{}
	}
	if path == dist.PathLease && !r.waitAt.IsZero() {
		r.idle += start.Sub(r.waitAt)
		r.waitAt = time.Time{}
	}
	r.mu.Unlock()

	resp, err := r.transport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	end := time.Now()
	us := float64(end.Sub(start).Nanoseconds()) / 1e3

	r.mu.Lock()
	r.calls++
	r.wire += req.ContentLength + int64(len(body))
	switch path {
	case dist.PathRegister:
		r.register = append(r.register, us)
	case dist.PathLease:
		r.lease = append(r.lease, us)
		switch {
		case bytes.Contains(body, []byte(`"wait":true`)):
			r.waits++
			r.waitAt = end
		case !bytes.Contains(body, []byte(`"done":true`)):
			r.leaseAt = end
		}
		r.fingerprints += countFingerprints(body)
	case dist.PathComplete:
		r.complete = append(r.complete, us)
		r.lastAck = end
	}
	r.mu.Unlock()
	tr.add(tr.reserve(), "dist."+strings.TrimPrefix(path, "/"), r.lane, op, parent, start, end)
	return resp, nil
}

// countFingerprints counts the entries of a lease response's
// "fingerprints" array without decoding the response.
func countFingerprints(body []byte) int64 {
	_, rest, ok := bytes.Cut(body, []byte(`"fingerprints":[`))
	if !ok {
		return 0
	}
	list, _, _ := bytes.Cut(rest, []byte("]"))
	if len(list) == 0 {
		return 0
	}
	return int64(bytes.Count(list, []byte(","))) + 1
}
