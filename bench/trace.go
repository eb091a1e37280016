package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"storeatomicity/internal/telemetry"
)

// Spans are recorded only here, in the benchmark, around each call into
// a layer's public function: the op loop and its checks (bench), the
// engine (core), HTTP round trips to mmserve (serve), and coordinator
// and worker protocol calls (dist). A span's layer is its name up to the
// first dot. Spans stay in memory and are written when the run ends.

// idleSpan marks an open-loop generator waiting for the next arrival.
// It receives wall clock only at instants when no other span is active.
const idleSpan = "bench.idle"

// span is one recorded interval. Parent 0 means none.
type span struct {
	id, parent int
	name       string
	lane, op   int
	start, end time.Time
}

// tracer records spans of one traced phase. A nil tracer records
// nothing, so untraced phases pay one nil check per span.
type tracer struct {
	mu     sync.Mutex
	next   int
	spans  []span
	chrome *telemetry.Tracer

	start, end time.Time
}

func newTracer() *tracer {
	return &tracer{chrome: telemetry.NewTracer()}
}

func (t *tracer) begin(at time.Time) {
	if t != nil {
		t.start = at
	}
}

func (t *tracer) finish(at time.Time) {
	if t != nil {
		t.end = at
	}
}

// reserve allocates a span ID before the span ends, so that children
// recorded first can name it as their parent. A nil tracer returns 0.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under an ID from reserve, and mirrors it
// into the Chrome trace with its op, ID and parent.
func (t *tracer) add(id int, name string, lane, op, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, lane: lane, op: op, start: start, end: end})
	t.mu.Unlock()
	t.chrome.SpanArgs(name, layerOf(name), lane, start,
		map[string]any{"op": op, "span": id, "parent": parent})
}

func layerOf(name string) string {
	if name == idleSpan {
		return "idle"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// attribution splits a traced phase's wall clock over the layers.
type attribution struct {
	WallS         float64            `json:"wall_s"`
	LayersS       map[string]float64 `json:"layers_s"`
	UnattributedS float64            `json:"unattributed_s"`
}

// attribute splits the phase's wall clock: each instant goes in equal
// shares to the innermost spans active at that instant (spans with no
// active child), so concurrent lanes split the time they overlap; an
// instant with only idle spans active counts as "idle", and one with no
// span active is unattributed. On a single lane a layer's time is
// exactly its spans' durations minus their children's. By construction
// the layers plus the unattributed residual sum to the wall clock.
func (t *tracer) attribute() attribution {
	type event struct {
		at    time.Time
		id    int
		start bool
	}
	byID := make([]*span, t.next+1)
	var events []event
	for i := range t.spans {
		s := &t.spans[i]
		start, end := s.start, s.end
		if start.Before(t.start) {
			start = t.start
		}
		if end.After(t.end) {
			end = t.end
		}
		if !end.After(start) {
			continue
		}
		byID[s.id] = s
		events = append(events, event{start, s.id, true}, event{end, s.id, false})
	}
	// At equal times, ends go before starts; children end before their
	// parents and start after them (IDs are reserved parent first).
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if !a.at.Equal(b.at) {
			return a.at.Before(b.at)
		}
		if a.start != b.start {
			return !a.start
		}
		if a.start {
			return a.id < b.id
		}
		return a.id > b.id
	})

	active := make([]bool, len(byID))
	kids := make([]int, len(byID))
	counted := make([]bool, len(byID))
	leaves := map[string]int{} // innermost active non-idle spans per layer
	nLeaves, nIdle := 0, 0
	setLeaf := func(id, d int) {
		if name := byID[id].name; name == idleSpan {
			nIdle += d
		} else {
			leaves[layerOf(name)] += d
			nLeaves += d
		}
	}

	a := attribution{LayersS: map[string]float64{}}
	prev := t.start
	credit := func(until time.Time) {
		dt := until.Sub(prev).Seconds()
		prev = until
		switch {
		case dt <= 0:
		case nLeaves > 0:
			for layer, n := range leaves {
				a.LayersS[layer] += dt * float64(n) / float64(nLeaves)
			}
		case nIdle > 0:
			a.LayersS["idle"] += dt
		default:
			a.UnattributedS += dt
		}
	}
	for _, ev := range events {
		credit(ev.at)
		s := byID[ev.id]
		p := s.parent
		if ev.start {
			active[s.id] = true
			if p > 0 && p < len(byID) && active[p] {
				if kids[p] == 0 {
					setLeaf(p, -1)
				}
				kids[p]++
				counted[s.id] = true
			}
			setLeaf(s.id, +1)
			continue
		}
		if kids[s.id] == 0 {
			setLeaf(s.id, -1)
		}
		active[s.id] = false
		if counted[s.id] {
			kids[p]--
			if kids[p] == 0 && active[p] {
				setLeaf(p, +1)
			}
		}
	}
	credit(t.end)
	a.WallS = t.end.Sub(t.start).Seconds()
	return a
}

// share returns a layer's fraction of the wall clock.
func (a attribution) share(layer string) float64 {
	if a.WallS <= 0 {
		return 0
	}
	if layer == "unattributed" {
		return a.UnattributedS / a.WallS
	}
	return a.LayersS[layer] / a.WallS
}

// balanced reports whether the layers plus the residual add up to the
// wall clock (up to float rounding).
func (a attribution) balanced() bool {
	sum := a.UnattributedS
	for _, s := range a.LayersS {
		sum += s
	}
	diff := sum - a.WallS
	return diff < 1e-6*a.WallS+1e-9 && -diff < 1e-6*a.WallS+1e-9
}

// writeTrace writes DIR/<workload>.trace.json (Chrome trace_event) and
// DIR/<workload>.layers.json (attribution plus every per-layer metric).
func writeTrace(dir, workload string, seed int64, t *tracer, a attribution, layerVals values) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	t.chrome.SetMeta("workload", workload)
	t.chrome.SetMeta("seed", seed)
	if err := t.chrome.WriteFile(filepath.Join(dir, workload+".trace.json")); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		attribution
		Metrics map[string]metricValue `json:"metrics"`
	}{workload, seed, a, layerVals.report(perLayer)}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".layers.json"), append(data, '\n'), 0o644)
}

// transcript digests the canonical answers of a workload's first ops,
// in op order, for the golden check at the default seed.
type transcript struct {
	want, n int
	h       hash.Hash
}

func newTranscript(want int) *transcript {
	return &transcript{want: want, h: sha256.New()}
}

// add appends op i's canonical answer while the prefix is incomplete.
func (tr *transcript) add(i int, canonical string) {
	if tr == nil || i != tr.n || tr.n >= tr.want {
		return
	}
	fmt.Fprintf(tr.h, "%d\n%s\n", i, canonical)
	tr.n++
}

// needs reports whether op i's answer still belongs in the transcript.
func (tr *transcript) needs(i int) bool {
	return tr != nil && i == tr.n && tr.n < tr.want
}

// digest returns the hex digest, or "" if the prefix was not reached.
func (tr *transcript) digest() string {
	if tr.n < tr.want {
		return ""
	}
	return fmt.Sprintf("%x", tr.h.Sum(nil))
}
