package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"storeatomicity/internal/obslog"
	"storeatomicity/internal/order"
	"storeatomicity/internal/telemetry"
)

// withRunFiles swaps the spill run-file factory for the duration of a
// test — the injected failing writer of the degradation tests.
func withRunFiles(t *testing.T, f func() (*os.File, error)) {
	t.Helper()
	old := createRunFile
	createRunFile = f
	t.Cleanup(func() { createRunFile = old })
}

// hasDegradation reports whether reasons contains an entry for leg.
func hasDegradation(reasons []string, leg string) bool {
	for _, r := range reasons {
		if strings.HasPrefix(r, leg+":") {
			return true
		}
	}
	return false
}

// TestSpillFlushFailureDegrades: when every run-file creation fails, the
// store latches broken, keeps exact membership in memory, and records
// the flush reason exactly once.
func TestSpillFlushFailureDegrades(t *testing.T) {
	wantErr := errors.New("disk full (injected)")
	withRunFiles(t, func() (*os.File, error) { return nil, wantErr })

	st := newSpillStore(16*8, &spillShared{}) // hotCap = 8 keys: no flush succeeds
	const n = 200
	for i := uint64(0); i < n; i++ {
		if !st.insert(splitmix64(i)) {
			t.Fatalf("key %d: first insert reported duplicate", i)
		}
	}
	if !st.broken {
		t.Fatal("store did not latch broken after flush failure")
	}
	for i := uint64(0); i < n; i++ {
		if st.insert(splitmix64(i)) {
			t.Fatalf("key %d: lost after degraded flush", i)
		}
	}
	if !hasDegradation(st.degraded, "flush") {
		t.Fatalf("degradations %v missing the flush reason", st.degraded)
	}
	if len(st.degraded) != 1 {
		t.Errorf("degradation reasons not deduplicated per leg: %v", st.degraded)
	}
}

// TestSpillReadFailureDegrades: run files that can be written but not
// read back make every cold probe answer "not seen" — sound, just
// re-exploring — and record the read reason.
func TestSpillReadFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	var seq int
	withRunFiles(t, func() (*os.File, error) {
		seq++
		// Write-only: writeRun succeeds, ReadAt fails with EBADF.
		return os.OpenFile(filepath.Join(dir, "wo"+string(rune('a'+seq))+".run"),
			os.O_CREATE|os.O_WRONLY, 0o600)
	})

	st := newSpillStore(16*8, &spillShared{})
	const n = 100
	for i := uint64(0); i < n; i++ {
		st.insert(splitmix64(i))
	}
	if len(st.runs) == 0 {
		t.Fatal("no runs flushed; the test needs a cold tier to probe")
	}
	// A spilled key now reads as "not seen": insert reports new again.
	relost := 0
	for i := uint64(0); i < n; i++ {
		if st.insert(splitmix64(i)) {
			relost++
		}
	}
	if relost == 0 {
		t.Fatal("no key was re-admitted; read failures were not exercised")
	}
	if !hasDegradation(st.degraded, "read") {
		t.Fatalf("degradations %v missing the read reason", st.degraded)
	}
}

// TestSpillCompactFailureKeepsBudget: a disk that fails every
// compaction's output file but no flush's leaves the runs as they are.
// Flushes go on at the full filter rate, so the filters' half of the
// budget runs out before the run list stops growing; the hot tier plus
// the filters still stay within the budget and the filters within half
// of it, every key is still found, and the compact reason is recorded.
func TestSpillCompactFailureKeepsBudget(t *testing.T) {
	const budget = 4 << 10
	dir := t.TempDir()
	var creates int
	withRunFiles(t, func() (*os.File, error) {
		// Runs 1–9 flush; from then on each flush is followed by a
		// compaction attempt, so the even creates are the compactions.
		if creates++; creates > spillMaxRuns+1 && creates%2 == 0 {
			return nil, errors.New("disk full (injected)")
		}
		return os.CreateTemp(dir, "mmdedup-*.run")
	})
	st := newSpillStore(budget, &spillShared{})
	defer st.release()
	const n = 4000
	for i := 0; i < n; i++ {
		st.insert(splitmix64(uint64(i)))
		if hot := int64(len(st.hot)) * spillHotBytesPerKey; hot+st.filterBytes > budget || 2*st.filterBytes > budget {
			t.Fatalf("insert %d: %d hot bytes + %d filter bytes exceed the %d-byte budget or its half", i, hot, st.filterBytes, budget)
		}
	}
	if len(st.runs) <= spillMaxRuns || !hasDegradation(st.degraded, "compact") {
		t.Fatalf("%d runs, degradations %v: compactions did not fail", len(st.runs), st.degraded)
	}
	if st.broken {
		t.Error("a compaction failure latched the store broken")
	}
	for i := 0; i < n; i++ {
		if !st.contains(splitmix64(uint64(i))) {
			t.Fatalf("key %d lost", i)
		}
	}
}

// TestEnumerateSurfacesFlushDegradation: an engine run whose spill tier
// cannot flush still produces the exact behavior set and reports why it
// degraded in Stats.SpillDegraded — on the sequential and the parallel
// engine.
func TestEnumerateSurfacesFlushDegradation(t *testing.T) {
	pol := order.Relaxed()
	base, err := Enumerate(context.Background(), figure10Prog(), pol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sourceSet(base)

	withRunFiles(t, func() (*os.File, error) { return nil, errors.New("disk full (injected)") })
	budgeted := Options{DedupMemBudget: 64} // hot tier: 4 keys → flush attempts early
	seq, err := Enumerate(context.Background(), figure10Prog(), pol, budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if got := sourceSet(seq); len(got) != len(want) {
		t.Errorf("degraded sequential run: %d behaviors, want %d", len(got), len(want))
	}
	if !hasDegradation(seq.Stats.SpillDegraded, "flush") {
		t.Errorf("sequential Stats.SpillDegraded = %v, want a flush reason", seq.Stats.SpillDegraded)
	}

	par, err := EnumerateParallel(context.Background(), figure10Prog(), pol, budgeted, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := sourceSet(par); len(got) != len(want) {
		t.Errorf("degraded parallel run: %d behaviors, want %d", len(got), len(want))
	}
	if !hasDegradation(par.Stats.SpillDegraded, "flush") {
		t.Errorf("parallel Stats.SpillDegraded = %v, want a flush reason", par.Stats.SpillDegraded)
	}
}

// TestEnumerateSurfacesReadDegradation: unreadable run files degrade the
// probe side; the behavior set is still exact (finals dedup is
// independent) and the read reason lands in Stats.SpillDegraded.
func TestEnumerateSurfacesReadDegradation(t *testing.T) {
	pol := order.Relaxed()
	base, err := Enumerate(context.Background(), figure10Prog(), pol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sourceSet(base)

	dir := t.TempDir()
	var seq int
	withRunFiles(t, func() (*os.File, error) {
		seq++
		return os.OpenFile(filepath.Join(dir, "wo"+string(rune('0'+seq%10))+string(rune('a'+(seq/10)%26))+".run"),
			os.O_CREATE|os.O_WRONLY, 0o600)
	})
	res, err := Enumerate(context.Background(), figure10Prog(), pol, Options{DedupMemBudget: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := sourceSet(res); len(got) != len(want) {
		t.Errorf("read-degraded run: %d behaviors, want %d", len(got), len(want))
	}
	if !hasDegradation(res.Stats.SpillDegraded, "read") {
		t.Errorf("Stats.SpillDegraded = %v, want a read reason", res.Stats.SpillDegraded)
	}
}

// TestIncompleteCarriesSpillDegradation: a run that stops early while
// degraded mirrors the reasons into the Incomplete report, so partial
// output explains both what stopped it and what was limping.
func TestIncompleteCarriesSpillDegradation(t *testing.T) {
	withRunFiles(t, func() (*os.File, error) { return nil, errors.New("disk full (injected)") })
	opts := Options{DedupMemBudget: 64, MaxBehaviors: 50}
	res, err := Enumerate(context.Background(), figure10Prog(), order.Relaxed(), opts)
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("want incomplete run, got %v", err)
	}
	if res.Incomplete == nil || !hasDegradation(res.Incomplete.SpillDegraded, "flush") {
		t.Fatalf("Incomplete.SpillDegraded = %+v, want a flush reason", res.Incomplete)
	}
}

// TestSpillTierObservability: the spill store's gauges track the
// resident hot tier and run filters, the run-file count, and
// compactions, and a degradation lands in the journal as a
// spill.degraded event — the "why did memory stop growing?" view.
// TestSpillGaugesDescribeWholeSet covers the set-wide totals and the
// budget gauge.
func TestSpillTierObservability(t *testing.T) {
	met := telemetry.NewEnumMetrics(nil)
	st := newSpillStore(16*8, &spillShared{met: met}) // hotCap = 8 keys until the first flush
	snap := func() telemetry.Snapshot { return met.Snapshot() }
	for i := uint64(0); i < 4; i++ {
		st.insert(splitmix64(i))
	}
	if got := snap()["enum_dedup_resident_bytes"]; got != 4*spillHotBytesPerKey {
		t.Errorf("enum_dedup_resident_bytes = %d after 4 inserts; want %d", got, 4*spillHotBytesPerKey)
	}
	// Push past the hot cap repeatedly: runs accumulate, then compaction
	// folds them back to one.
	for i := uint64(4); i < 8*(spillMaxRuns+2); i++ {
		st.insert(splitmix64(i))
	}
	defer st.release()
	if got := snap()["enum_dedup_runfiles"]; got != int64(len(st.runs)) {
		t.Errorf("enum_dedup_runfiles = %d; store has %d runs", got, len(st.runs))
	}
	if got := snap()["enum_dedup_resident_bytes"]; got != st.resident() || st.filterBytes == 0 {
		t.Errorf("enum_dedup_resident_bytes = %d; store holds %d hot keys and %d filter bytes", got, len(st.hot), st.filterBytes)
	}
	if got := snap()["enum_dedup_compactions_total"]; got < 1 {
		t.Errorf("enum_dedup_compactions_total = %d after %d runs worth of inserts; want >= 1", got, spillMaxRuns+2)
	}

	// A flush failure journals spill.degraded.
	var buf bytes.Buffer
	jl := obslog.New(&buf, "r1", "test")
	wantErr := errors.New("disk full (injected)")
	withRunFiles(t, func() (*os.File, error) { return nil, wantErr })
	st2 := newSpillStore(16*8, &spillShared{met: met, jl: jl})
	for i := uint64(0); i < 20; i++ {
		st2.insert(splitmix64(i))
	}
	if !st2.broken {
		t.Fatal("store did not latch broken")
	}
	if !strings.Contains(buf.String(), `"msg":"spill.degraded"`) || !strings.Contains(buf.String(), "disk full") {
		t.Errorf("journal missing spill.degraded event: %s", buf.String())
	}
}
