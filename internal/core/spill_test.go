package core

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"storeatomicity/internal/order"
	"storeatomicity/internal/telemetry"
)

// splitmix64 generates deterministic well-spread test fingerprints.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestSpillStoreRoundtrip: a store with a tiny hot tier must keep exact
// membership across many flushes and compactions, and release must
// delete its run files.
func TestSpillStoreRoundtrip(t *testing.T) {
	st := newSpillStore(16*8, &spillShared{}) // hotCap ≤ 8 keys → hundreds of flushes
	const n = 5000
	for i := uint64(0); i < n; i++ {
		if !st.insert(splitmix64(i)) {
			t.Fatalf("key %d: first insert reported duplicate", i)
		}
	}
	if len(st.runs) == 0 {
		t.Fatal("no runs flushed despite tiny hot tier")
	}
	if len(st.runs) > spillMaxRuns {
		t.Fatalf("compaction did not bound the run list: %d runs", len(st.runs))
	}
	for i := uint64(0); i < n; i++ {
		if st.insert(splitmix64(i)) {
			t.Fatalf("key %d: re-insert reported new", i)
		}
		if !st.contains(splitmix64(i)) {
			t.Fatalf("key %d: lost after spill", i)
		}
	}
	for i := uint64(n); i < n+1000; i++ {
		if st.contains(splitmix64(i)) {
			t.Fatalf("key %d: false positive", i)
		}
	}
	var files []string
	for _, r := range st.runs {
		files = append(files, r.f.Name())
	}
	st.release()
	for _, name := range files {
		if _, err := os.Stat(name); !os.IsNotExist(err) {
			t.Errorf("run file %s survived release (err=%v)", name, err)
		}
	}
}

// TestLoserTreeMerge: a k-way merge over disjoint sorted runs emits
// every key exactly once, in ascending order — including k == 1.
func TestLoserTreeMerge(t *testing.T) {
	for _, k := range []int{1, 3, 7} {
		var runs []*spillRun
		want := map[uint64]bool{}
		for r := 0; r < k; r++ {
			var keys []uint64
			for i := 0; i < 700+13*r; i++ {
				h := splitmix64(uint64(r)<<32 | uint64(i))
				keys = append(keys, h)
				want[h] = true
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			run, err := writeRun(&sliceSource{keys: keys}, len(keys), 0)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run)
		}
		cur := make([]*runCursor, len(runs))
		for i, r := range runs {
			cur[i] = newRunCursor(r)
		}
		lt := newLoserTree(cur)
		var prev uint64
		count := 0
		for {
			h, ok := lt.next()
			if !ok {
				break
			}
			if count > 0 && h <= prev {
				t.Fatalf("k=%d: merge output not strictly ascending at key %d", k, count)
			}
			if !want[h] {
				t.Fatalf("k=%d: merge emitted unknown key %#x", k, h)
			}
			prev = h
			count++
		}
		if count != len(want) {
			t.Fatalf("k=%d: merge emitted %d keys, want %d", k, count, len(want))
		}
		for _, r := range runs {
			releaseRun(r)
		}
	}
}

// TestSpillEquivalence is the ISSUE acceptance check: a search whose
// DedupMemBudget is far below its fingerprint-set size must produce a
// behavior set bit-identical to the unbounded run, sequentially and at
// N workers, with the spill tier demonstrably engaged.
func TestSpillEquivalence(t *testing.T) {
	pol := order.Relaxed()
	base, err := Enumerate(context.Background(), figure10Prog(), pol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sourceKeySet(base)

	met := telemetry.NewEnumMetrics(nil)
	budgeted := Options{DedupMemBudget: 64, Metrics: met} // hot tier: 4 keys
	seq, err := Enumerate(context.Background(), figure10Prog(), pol, budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if got := sourceKeySet(seq); len(got) != len(want) {
		t.Fatalf("sequential budgeted run: %d behaviors, want %d", len(got), len(want))
	} else {
		for k := range want {
			if !got[k] {
				t.Errorf("sequential budgeted run missing behavior %q", k)
			}
		}
	}
	// Spilling only moves fingerprints; every membership answer — and
	// therefore every work counter — must match the unbounded run.
	if !reflect.DeepEqual(seq.Stats, base.Stats) {
		t.Errorf("budgeted stats diverge: %+v vs %+v", seq.Stats, base.Stats)
	}
	if met.SpillRuns.Value() == 0 {
		t.Error("budgeted sequential run never flushed a spill run")
	}

	pmet := telemetry.NewEnumMetrics(nil)
	par, err := EnumerateParallel(context.Background(), figure10Prog(), pol,
		Options{DedupMemBudget: 64, Metrics: pmet}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := sourceKeySet(par); len(got) != len(want) {
		t.Fatalf("parallel budgeted run: %d behaviors, want %d", len(got), len(want))
	} else {
		for k := range want {
			if !got[k] {
				t.Errorf("parallel budgeted run missing behavior %q", k)
			}
		}
	}
	if pmet.SpillRuns.Value() == 0 {
		t.Error("budgeted parallel run never flushed a spill run")
	}
}

// TestCollisionGuardPanics forces two distinct Load–Store-graph
// signatures onto one fingerprint and checks the guard's contract: a
// genuine duplicate is still a duplicate, and the collision panics with
// the fingerprint and both signatures. The guard map is installed by hand
// so the test runs with or without the dedupcheck build tag.
func TestCollisionGuardPanics(t *testing.T) {
	const h = 0xdeadbeefcafe // the "colliding" FNV-1a fingerprint
	var k shardedSet
	k.init(1, Options{}.withDefaults(), 0)
	k.shards[0].guard = map[uint64]string{}
	if !k.insert(h, "sigA") {
		t.Fatal("first signature under the fingerprint not new")
	}
	if k.insert(h, "sigA") {
		t.Error("genuine duplicate of the first signature not recognized")
	}
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"0x0000deadbeefcafe", `"sigA"`, `"sigB"`} {
			if !strings.Contains(msg, want) {
				t.Errorf("collision panic %q does not name %s", msg, want)
			}
		}
	}()
	k.insert(h, "sigB")
}

// freshReadsPerProbe probes count keys no store insert used (splitmix64
// of from, from+1, …) and returns the run blocks read per probe.
func freshReadsPerProbe(t *testing.T, st *spillStore, met *telemetry.EnumMetrics, from uint64, count int) float64 {
	t.Helper()
	before := met.SpillReads.Value()
	for i := uint64(0); i < uint64(count); i++ {
		if st.contains(splitmix64(from + i)) {
			t.Fatalf("fresh key %d reported seen", from+i)
		}
	}
	return float64(met.SpillReads.Value()-before) / float64(count)
}

// TestSpillBudgetHolds streams 200k keys through a store with a 4 KiB
// budget, through hundreds of flushes and compactions. After every
// insert the hot tier plus the run filters stay within the budget, and
// the filters within half of it; the hot tier holds budget/16 keys
// until the first flush; every key is still found at the end. Fresh keys
// read fewer than 0.1 blocks per probe while the filters keep their full
// density — just before the first compaction, with the most runs the
// store holds — and the runs flushed after a compaction still get
// filters. Past that the filters thin out, as they must: no 2 KiB
// filter can answer "no" for most fresh keys against 200k members. Below
// one bit per key the store drops them and the hot tier takes the whole
// budget again, which is how the store behaves without filters.
func TestSpillBudgetHolds(t *testing.T) {
	const budget, n = 4 << 10, 200_000
	met := telemetry.NewEnumMetrics(nil)
	st := newSpillStore(budget, &spillShared{met: met})
	defer st.release()
	firstFlush, probedFresh := 0, false
	for i := 0; i < n; i++ {
		if !st.insert(splitmix64(uint64(i))) {
			t.Fatalf("key %d: first insert reported duplicate", i)
		}
		var filters int64
		for _, r := range st.runs {
			filters += r.filter.bytes()
		}
		if filters != st.filterBytes {
			t.Fatalf("insert %d: runs hold %d filter bytes, store counts %d", i, filters, st.filterBytes)
		}
		if hot := int64(len(st.hot)) * spillHotBytesPerKey; hot+filters > budget || 2*filters > budget {
			t.Fatalf("insert %d: %d hot bytes + %d filter bytes exceed the %d-byte budget or its half", i, hot, filters, budget)
		}
		if firstFlush == 0 {
			if len(st.runs) > 0 {
				firstFlush = i + 1
			} else if len(st.hot) != i+1 {
				t.Fatalf("insert %d: hot tier holds %d keys before the first flush", i, len(st.hot))
			}
		}
		if len(st.runs) == spillMaxRuns && met.SpillCompactions.Value() == 0 && !probedFresh {
			probedFresh = true
			if got := freshReadsPerProbe(t, st, met, 1<<40, 20_000); got >= 0.1 {
				t.Fatalf("%d runs at full filter density: fresh keys read %.3f blocks per probe, want < 0.1", len(st.runs), got)
			}
		}
		// A compaction leaves room in the half for the runs after it.
		if len(st.runs) == spillMaxRuns && met.SpillCompactions.Value() == 1 {
			for j, r := range st.runs {
				if r.filter.bytes() == 0 {
					t.Fatalf("insert %d: run %d of %d after the first compaction has no filter", i, j, len(st.runs))
				}
			}
		}
	}
	if firstFlush != budget/spillHotBytesPerKey {
		t.Errorf("first flush at insert %d, want %d (budget/%d)", firstFlush, budget/spillHotBytesPerKey, spillHotBytesPerKey)
	}
	if met.SpillCompactions.Value() == 0 || !probedFresh {
		t.Fatal("no compaction; the stream did not exercise the merged filters")
	}
	reads := met.SpillReads.Value()
	for i := 0; i < n; i++ {
		if !st.contains(splitmix64(uint64(i))) {
			t.Fatalf("key %d lost", i)
		}
	}
	// A spilled key is found only by reading its block.
	if got, spilled := met.SpillReads.Value()-reads, int64(n-len(st.hot)); got < spilled {
		t.Errorf("finding %d spilled keys read %d blocks", spilled, got)
	}
	if st.filterBytes != 0 || st.hotCap != budget/spillHotBytesPerKey {
		t.Errorf("after %d keys: %d filter bytes and a %d-key hot tier, want no filters and %d keys",
			n, st.filterBytes, st.hotCap, budget/spillHotBytesPerKey)
	}
}

// TestSpillGaugesDescribeWholeSet: above width 1 the seen-set has 64
// stores, and its gauges must describe all of them: the budget gauge
// holds the configured budget, and the resident and run-file gauges the
// sums over every shard's store (resident bytes count the filters).
// Checked on a set driven directly, where the sums can be read back, and
// on engine runs at widths 1 and 4, each under a budget that spills.
func TestSpillGaugesDescribeWholeSet(t *testing.T) {
	for _, c := range []struct {
		width  int
		budget int64
	}{{1, 1024}, {4, 4096}} {
		met := telemetry.NewEnumMetrics(nil)
		var k shardedSet
		k.init(c.width, Options{Metrics: met}.withDefaults(), c.budget)
		for i := uint64(0); i < 3000; i++ {
			k.insert(splitmix64(i), "")
		}
		var resident, files int64
		for i := range k.shards {
			if st := k.shards[i].spill; st != nil {
				resident += st.resident()
				files += int64(len(st.runs))
			}
		}
		k.release()
		snap := met.Snapshot()
		if got := snap["enum_dedup_budget_bytes"]; got != c.budget {
			t.Errorf("width %d set: enum_dedup_budget_bytes = %d, want %d", c.width, got, c.budget)
		}
		if got := snap["enum_dedup_resident_bytes"]; got != resident || resident > c.budget {
			t.Errorf("width %d set: enum_dedup_resident_bytes = %d; the stores hold %d of %d", c.width, got, resident, c.budget)
		}
		if got := snap["enum_dedup_runfiles"]; got != files || files == 0 {
			t.Errorf("width %d set: enum_dedup_runfiles = %d; the stores hold %d runs", c.width, got, files)
		}

		met = telemetry.NewEnumMetrics(nil)
		if _, err := EnumerateParallel(context.Background(), figure10Prog(), order.Relaxed(),
			Options{DedupMemBudget: c.budget, Metrics: met}, c.width); err != nil {
			t.Fatal(err)
		}
		snap = met.Snapshot()
		runs, compactions := snap["enum_dedup_spill_runs_total"], snap["enum_dedup_compactions_total"]
		if runs == 0 {
			t.Fatalf("width %d run: no spill run flushed", c.width)
		}
		if got := snap["enum_dedup_budget_bytes"]; got != c.budget {
			t.Errorf("width %d run: enum_dedup_budget_bytes = %d, want %d", c.width, got, c.budget)
		}
		// Each compaction folds spillMaxRuns+1 runs into one.
		if got, want := snap["enum_dedup_runfiles"], runs-spillMaxRuns*compactions; got != want {
			t.Errorf("width %d run: enum_dedup_runfiles = %d after %d runs and %d compactions, want %d",
				c.width, got, runs, compactions, want)
		}
		if got := snap["enum_dedup_resident_bytes"]; got <= 0 || got > c.budget {
			t.Errorf("width %d run: enum_dedup_resident_bytes = %d, want within (0, %d]", c.width, got, c.budget)
		}
	}
}

// BenchmarkSpillContains times a cold lookup on a store past its budget:
// 40k keys through a 64 KiB budget, so most of them sit in filtered
// runs on disk. "disk" looks up keys the runs hold (about one block read
// each); "fresh" looks up keys no run holds (a filter "no" reads
// nothing). reads/op is run blocks read per lookup.
func BenchmarkSpillContains(b *testing.B) {
	const budget, n = 64 << 10, 40_000
	met := telemetry.NewEnumMetrics(nil)
	st := newSpillStore(budget, &spillShared{met: met})
	defer st.release()
	for i := uint64(0); i < n; i++ {
		st.insert(splitmix64(i))
	}
	for _, c := range []struct {
		name string
		base uint64
		hit  bool
	}{{"disk", 0, true}, {"fresh", 1 << 40, false}} {
		b.Run(c.name, func(b *testing.B) {
			reads := met.SpillReads.Value()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The first half of the keys were flushed long ago.
				if st.contains(splitmix64(c.base+uint64(i%(n/2)))) != c.hit {
					b.Fatalf("key %d: contains = %v, want %v", c.base+uint64(i%(n/2)), !c.hit, c.hit)
				}
			}
			b.ReportMetric(float64(met.SpillReads.Value()-reads)/float64(b.N), "reads/op")
		})
	}
}
