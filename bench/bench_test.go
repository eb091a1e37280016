package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestGeneratorsDeterministic: every workload's inputs are a function
// of the seed alone.
func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) string{
		"enum-corpus": func(seed int64) string {
			var b strings.Builder
			for _, cp := range genCorpus(seed, 64) {
				fmt.Fprintf(&b, "%s\n%s\n", cp.model.Name, cp.prog)
			}
			return b.String()
		},
		"enum-wide": func(seed int64) string {
			deck, err := genWideDeck(seed, [][3]int{{4, 3, 1}, {5, 2, 2}})
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, wp := range deck {
				b.WriteString(wp.src)
			}
			return b.String()
		},
		"serve-zipf": func(seed int64) string {
			keys, err := genServeKeys(50, [2][2]int{{5, 2}, {4, 2}})
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, k := range keys {
				fmt.Fprintf(&b, "%s\n", k.req)
			}
			for _, a := range genArrivals(seed, serveRate, 2*time.Second, len(keys)) {
				fmt.Fprintf(&b, "%d %d\n", a.at, a.key)
			}
			return b.String()
		},
		"fleet-jobs": func(seed int64) string {
			return fmt.Sprint(genFleetOrder(seed, fleetPairs))
		},
	}
	for name, gen := range gens {
		if a, b := gen(1), gen(1); a != b {
			t.Errorf("%s: seed 1 generated two different inputs", name)
		}
		if gen(1) == gen(2) {
			t.Errorf("%s: seeds 1 and 2 generated the same input", name)
		}
	}
}

// TestGenArrivalsQuotas: every seed sends each key its fixed share.
func TestGenArrivalsQuotas(t *testing.T) {
	count := func(seed int64) map[int]int {
		c := map[int]int{}
		for _, a := range genArrivals(seed, 500, 2*time.Second, 40) {
			c[a.key]++
		}
		return c
	}
	a, b := count(1), count(7)
	total := 0
	for k, n := range a {
		total += n
		if b[k] != n {
			t.Errorf("key %d: %d requests at seed 1, %d at seed 7", k, n, b[k])
		}
	}
	if total != 1000 || a[0] <= a[1] || a[1] <= a[39] {
		t.Errorf("want 1000 requests with zipf counts, got %d (rank 0: %d, 1: %d, 39: %d)", total, a[0], a[1], a[39])
	}
}

// TestTailPercentile: the tail is the highest ladder percentile with at
// least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{20000, 99.9}, {10000, 99.9}, {9000, 99.5}, {2500, 99.5}, {1000, 99}, {42, 75}, {100, 90}, {12, 50}, {0, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for n := 21; n < 30000; n += 7 {
		p := tailPercentile(n)
		if beyond(n, p) < 10 {
			t.Fatalf("n=%d: p%v has %d samples beyond", n, p, beyond(n, p))
		}
		for _, higher := range tailLadder {
			if higher > p && beyond(n, higher) >= 10 {
				t.Fatalf("n=%d: chose p%v but p%v also has ten beyond", n, p, higher)
			}
		}
	}
	sorted := []float64{1, 2, 3, 4, 5}
	if got := quantile(sorted, 50); got != 3 {
		t.Errorf("median of 1..5 = %v", got)
	}
	if got := quantile(sorted, 75); got != 4 {
		t.Errorf("p75 of 1..5 = %v", got)
	}
}

// TestAttribution: layer self times plus the residual equal the wall
// clock, a parent is charged only outside its children, and concurrent
// innermost spans split the time they overlap.
func TestAttribution(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := newTracer()
	tr.begin(at(0))
	root := tr.reserve()
	tr.add(tr.reserve(), "core.enumerate", 0, 0, root, at(10), at(40))
	tr.add(tr.reserve(), "dist.lease", 1, 0, root, at(30), at(50))
	tr.add(root, "bench.op", 0, 0, 0, at(0), at(60))
	tr.add(tr.reserve(), idleSpan, 0, 1, 0, at(60), at(80))
	tr.finish(at(100))
	a := tr.attribute()
	want := map[string]float64{"bench": 0.020, "core": 0.025, "dist": 0.015, "idle": 0.020}
	for layer, s := range want {
		if diff := a.LayersS[layer] - s; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: %v s, want %v", layer, a.LayersS[layer], s)
		}
	}
	if diff := a.UnattributedS - 0.020; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("unattributed %v s, want 0.020", a.UnattributedS)
	}
	if !a.balanced() || a.WallS != 0.1 {
		t.Errorf("layers %v + %v do not sum to wall %v", a.LayersS, a.UnattributedS, a.WallS)
	}
}

// TestSmoke runs every workload at tiny size, traced, and requires no
// failed op or check, the trace and layer files, and exactly the
// per-layer metrics of the schema.
func TestSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	start := time.Now()
	for _, d := range workloads {
		cfg := config{workload: d.name, seed: 1, seconds: 0.4, trace: true, traceDir: dir, tiny: true}
		res, err := runWorkload(ctx, cfg, t.TempDir(), false)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if res.Failed != 0 || res.ErrorRate != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", d.name, res.Failed, res.Attempted, res.Failures)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", d.name, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", d.name, m.name, got, m.unit)
			}
		}
		for _, f := range []string{".trace.json", ".layers.json"} {
			if _, err := os.Stat(filepath.Join(dir, d.name+f)); err != nil {
				t.Errorf("%s: %v", d.name, err)
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke run took %v, want under 15s", d)
	}
}

// TestSchema: the metric and workload names, units and directions the
// benchmark emits are the ones BENCHMARK.json declares.
func TestSchema(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names, declared []string
	for _, d := range workloads {
		names = append(names, d.name)
	}
	for _, w := range doc.Workloads {
		declared = append(declared, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(declared) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	render := func(defs []metricDef) string {
		var lines []string
		for _, d := range defs {
			lines = append(lines, d.name+" "+d.unit+" "+d.better)
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	var e2e, layer []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if got, want := render(endToEnd), render(e2e); got != want {
		t.Errorf("end-to-end metrics:\n%s\nBENCHMARK.json:\n%s", got, want)
	}
	if got, want := render(perLayer), render(layer); got != want {
		t.Errorf("per-layer metrics:\n%s\nBENCHMARK.json:\n%s", got, want)
	}
}
