// Package chaos is the fault-injection harness for the distributed
// enumeration layer: on a seeded schedule it kills workers (context
// cancellation — the process-crash model), pauses them (heartbeats
// blocked, computation continues — the GC-pause/stalled-host model), or
// partitions them (every coordinator call blocked — the network-split
// model). A Fleet supervises worker slots and respawns abnormal exits
// until the coordinator reports done, each generation under a fresh ID
// so the journal tells them apart; the coordinator reassigns the shards
// of lost workers, and the final merged set must come out bit-identical
// to a single-process run.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"storeatomicity/internal/dist"
	"storeatomicity/internal/obslog"
)

// Kind classifies one chaos event.
type Kind int

const (
	// Kill cancels the worker's context mid-run: the process-crash
	// model. The victim never posts its in-flight shard; once it is
	// declared lost the shard goes to a peer (or to the victim's respawn).
	Kill Kind = iota
	// Pause blocks the worker's heartbeats for Dur while computation
	// continues: the stalled-host model. The victim is declared lost,
	// the shard is reassigned, and the victim's late completion must be
	// absorbed idempotently (first-wins).
	Pause
	// Partition blocks every coordinator call for Dur: the
	// network-split model, exercising the retry/backoff discipline.
	Partition
)

func (k Kind) String() string {
	switch k {
	case Kill:
		return "kill"
	case Pause:
		return "pause"
	case Partition:
		return "partition"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event schedules one fault: at offset At from fleet start, worker slot
// Worker suffers Kind (Pause/Partition last Dur).
type Event struct {
	At     time.Duration
	Worker int
	Kind   Kind
	Dur    time.Duration
}

// Plan is a seeded chaos schedule.
type Plan struct {
	Events []Event
}

// RandomPlan derives a reproducible schedule: roughly two events per
// worker spread over the horizon, kinds and victims drawn from the
// seeded generator.
func RandomPlan(seed int64, workers int, horizon time.Duration) Plan {
	rng := rand.New(rand.NewSource(seed))
	var p Plan
	n := 2 * workers
	for i := 0; i < n; i++ {
		p.Events = append(p.Events, Event{
			At:     time.Duration(rng.Int63n(int64(horizon))),
			Worker: rng.Intn(workers),
			Kind:   Kind(rng.Intn(3)),
			Dur:    horizon / 4,
		})
	}
	sort.Slice(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p
}

// Gate is an http.RoundTripper that can drop requests: all of them
// (Partition) or per-path (Pause blocks only the heartbeat path).
// Blocked requests fail immediately with a transport error, which the
// worker's retry/backoff treats as transient.
type Gate struct {
	next http.RoundTripper

	mu       sync.Mutex
	allUntil time.Time
	paths    map[string]time.Time
}

// NewGate wraps a transport (http.DefaultTransport when nil).
func NewGate(next http.RoundTripper) *Gate {
	if next == nil {
		next = http.DefaultTransport
	}
	return &Gate{next: next, paths: map[string]time.Time{}}
}

// BlockAll drops every request until d from now has passed.
func (g *Gate) BlockAll(d time.Duration) {
	g.mu.Lock()
	g.allUntil = time.Now().Add(d)
	g.mu.Unlock()
}

// BlockPath drops requests for one URL path until d from now.
func (g *Gate) BlockPath(path string, d time.Duration) {
	g.mu.Lock()
	g.paths[path] = time.Now().Add(d)
	g.mu.Unlock()
}

// RoundTrip implements http.RoundTripper.
func (g *Gate) RoundTrip(req *http.Request) (*http.Response, error) {
	g.mu.Lock()
	now := time.Now()
	blocked := now.Before(g.allUntil) || now.Before(g.paths[req.URL.Path])
	g.mu.Unlock()
	if blocked {
		return nil, fmt.Errorf("chaos: %s blocked", req.URL.Path)
	}
	return g.next.RoundTrip(req)
}

// Fleet supervises worker slots under a chaos plan. Each slot runs a
// dist.Worker built from Base (ID and Client are overridden per
// generation); a slot whose worker exits abnormally — killed, or
// retries exhausted during a partition — respawns with a fresh
// generation ID until the coordinator reports done. Run returns when
// every slot has drained cleanly.
type Fleet struct {
	// Base is the worker template; Fleet overrides ID and Client.
	Base dist.WorkerConfig
	// Workers is the slot count.
	Workers int
	// Plan is the chaos schedule (empty = no faults).
	Plan Plan
	// Respawn is the delay before a dead slot restarts (default 20ms).
	Respawn time.Duration
	// Journal, when non-nil, records every injected fault and respawn —
	// the harness's own lane in the merged fleet timeline, so a test
	// failure (or a human reading a chaos run) can line injected cause
	// up against observed effect.
	Journal *obslog.Journal

	// Spawns counts worker generations started, Kills/Pauses/Partitions
	// the events applied — test observability.
	mu         sync.Mutex
	Spawns     int
	Applied    []string
	cancelCurr []context.CancelFunc
	gates      []*Gate
}

// Run executes the fleet under ctx. The returned error is ctx's, if it
// ended the run early; chaos-induced worker deaths are not errors.
func (f *Fleet) Run(ctx context.Context) error {
	if f.Workers <= 0 {
		f.Workers = 1
	}
	respawn := f.Respawn
	if respawn <= 0 {
		respawn = 20 * time.Millisecond
	}
	f.cancelCurr = make([]context.CancelFunc, f.Workers)
	f.gates = make([]*Gate, f.Workers)
	for i := range f.gates {
		f.gates[i] = NewGate(nil)
	}

	// The scheduler applies plan events relative to fleet start.
	schedCtx, schedCancel := context.WithCancel(ctx)
	var schedWG sync.WaitGroup
	schedWG.Add(1)
	go func() {
		defer schedWG.Done()
		start := time.Now()
		for _, ev := range f.Plan.Events {
			select {
			case <-schedCtx.Done():
				return
			case <-time.After(time.Until(start.Add(ev.At))):
			}
			f.apply(ev)
		}
	}()

	var wg sync.WaitGroup
	for slot := 0; slot < f.Workers; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for gen := 1; ; gen++ {
				if ctx.Err() != nil {
					return
				}
				wctx, cancel := context.WithCancel(ctx)
				f.mu.Lock()
				f.cancelCurr[slot] = cancel
				f.Spawns++
				f.mu.Unlock()
				cfg := f.Base
				cfg.ID = fmt.Sprintf("%s-w%dg%d", baseID(f.Base.ID), slot, gen)
				cfg.Seed = int64(slot*1000 + gen)
				cfg.Client = &http.Client{Transport: f.gates[slot], Timeout: 30 * time.Second}
				if gen > 1 {
					f.Journal.Emit(obslog.WorkerRespawned, obslog.Fields{
						Worker: cfg.ID, Attempt: gen,
					})
				}
				err := dist.NewWorker(cfg).Run(wctx)
				cancel()
				if err == nil {
					return // coordinator says done
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(respawn):
				}
			}
		}(slot)
	}
	wg.Wait()
	schedCancel()
	schedWG.Wait()
	return ctx.Err()
}

func baseID(id string) string {
	if id == "" {
		return "chaos"
	}
	return id
}

// apply executes one event against the current generation in the slot.
func (f *Fleet) apply(ev Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ev.Worker < 0 || ev.Worker >= len(f.gates) {
		return
	}
	f.Applied = append(f.Applied, fmt.Sprintf("%v@%v w%d", ev.Kind, ev.At.Round(time.Millisecond), ev.Worker))
	evType := map[Kind]obslog.Type{Kill: obslog.ChaosKill, Pause: obslog.ChaosPause, Partition: obslog.ChaosPartition}[ev.Kind]
	f.Journal.Emit(evType, obslog.Fields{
		Worker: fmt.Sprintf("w%d", ev.Worker), Ms: ev.Dur.Milliseconds(),
		Detail: ev.At.Round(time.Millisecond).String(),
	})
	switch ev.Kind {
	case Kill:
		if c := f.cancelCurr[ev.Worker]; c != nil {
			c()
		}
	case Pause:
		f.gates[ev.Worker].BlockPath(dist.PathHeartbeat, ev.Dur)
	case Partition:
		f.gates[ev.Worker].BlockAll(ev.Dur)
	}
}
