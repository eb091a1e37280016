package storeatomicity

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"storeatomicity/internal/core"
)

// TestResultFootprint pins what the result set costs, the one structure
// neither memory budget bounds: at most 8 KiB of live heap per recorded
// behavior on E15 (4,096 of them), and core.Node at most 160 bytes. An
// Execution holds exact-size copies of its nodes, path, bypasses and graph
// (about 7 KiB here); one that kept its engine state's buffers, with their
// spare capacity and inherited slab arenas, held about 14.6 KiB, and a Node
// that embedded its instruction took 296 bytes.
func TestResultFootprint(t *testing.T) {
	if size := unsafe.Sizeof(core.Node{}); size > 160 {
		t.Errorf("core.Node is %d bytes, want at most 160", size)
	}
	e15 := enumSuite[len(enumSuite)-1]
	if per := liveBytesPerBehavior(t, e15); per > 8<<10 {
		t.Errorf("%s: the result holds %.0f bytes per behavior, want at most %d", e15.name(), per, 8<<10)
	}
}

// liveBytesPerBehavior enumerates the entry once at width 1 and returns
// the live heap its Result holds after a full collection, divided by the
// behaviors it recorded.
func liveBytesPerBehavior(tb testing.TB, s suiteEntry) float64 {
	tb.Helper()
	tc, m, opts := s.setup(tb)
	p := tc.Build()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := int64(ms.HeapAlloc)
	res, err := core.Enumerate(context.Background(), p, m.Policy, opts)
	if err != nil {
		tb.Fatalf("%s: %v", s.name(), err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	live := int64(ms.HeapAlloc) - before
	runtime.KeepAlive(res)
	return float64(live) / float64(len(res.Executions))
}
