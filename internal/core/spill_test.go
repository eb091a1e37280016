package core

import (
	"bufio"
	"context"
	"fmt"
	"io"
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
	st := newSpillStore(16*8, nil, nil) // hotCap = 8 keys → hundreds of flushes
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
			run, err := writeRun(&sliceSource{keys: keys})
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run)
		}
		cur := make([]*runCursor, len(runs))
		for i, r := range runs {
			cur[i] = &runCursor{br: bufio.NewReaderSize(io.NewSectionReader(r.f, 0, int64(r.n)*8), 1<<16)}
			cur[i].advance()
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
// the fingerprint and both signatures, on insert and on lookup alike.
// The guard map is installed by hand so the test runs with or without
// the dedupcheck build tag.
func TestCollisionGuardPanics(t *testing.T) {
	const h = 0xdeadbeefcafe // the "colliding" FNV-1a fingerprint
	for name, collide := range map[string]func(*shardedSet){
		"insert": func(k *shardedSet) { k.insert(h, "sigB") },
		"has":    func(k *shardedSet) { k.has(h, "sigB") },
	} {
		var k shardedSet
		k.init(1, Options{}.withDefaults(), 0)
		k.shards[0].guard = map[uint64]string{}
		if !k.insert(h, "sigA") {
			t.Fatal("first signature under the fingerprint not new")
		}
		if k.insert(h, "sigA") || !k.has(h, "sigA") {
			t.Error("genuine duplicate of the first signature not recognized")
		}
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{"0x0000deadbeefcafe", `"sigA"`, `"sigB"`} {
					if !strings.Contains(msg, want) {
						t.Errorf("%s: collision panic %q does not name %s", name, msg, want)
					}
				}
			}()
			collide(&k)
		}()
	}
}
