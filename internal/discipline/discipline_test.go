package discipline

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
)

// gatedMP builds properly synchronized message passing: the consumer only
// touches the data when the flag was observed set, behind a fence.
//
//	Writer: S x,42 ; Fence ; S y,1
//	Reader: r1 = L y ; r0 = (r1 == 0) ; Br r0 -> end ; Fence ; r2 = L x
func gatedMP(writerFence, readerFence bool) *program.Program {
	isZero := func(a []program.Value) program.Value {
		if a[0] == 0 {
			return 1
		}
		return 0
	}
	b := program.NewBuilder()
	ta := b.Thread("W")
	ta.StoreL("Sx", program.X, 42)
	if writerFence {
		ta.Fence()
	}
	ta.StoreL("Sy", program.Y, 1)
	tb := b.Thread("R")
	tb.LoadL("Ly", 1, program.Y)
	tb.Op(2, isZero, 1)
	end := tb.Len() + 2 // branch + optional fence + load
	if readerFence {
		end++
	}
	tb.Branch(2, end)
	if readerFence {
		tb.Fence()
	}
	tb.LoadL("Lx", 3, program.X)
	return b.Build()
}

var syncY = map[program.Addr]bool{program.Y: true}

// TestGatedFencedMPIsWellSynchronized: with both fences and the guard,
// the data load always has exactly one eligible store.
func TestGatedFencedMPIsWellSynchronized(t *testing.T) {
	rep, err := Check(context.Background(), gatedMP(true, true), order.Relaxed(), syncY, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.WellSynchronized {
		t.Errorf("gated+fenced MP reported racy: %v", rep.Violations)
	}
	// And the data value is deterministic when read.
	for _, e := range rep.Result.Executions {
		v := e.LoadValues()
		if lx, ok := v["Lx"]; ok && lx != 42 {
			t.Errorf("synchronized read saw %d", lx)
		}
	}
}

// TestUnfencedMPIsRacy: dropping either fence reintroduces the race.
func TestUnfencedMPIsRacy(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		writerFence, readerFence bool
	}{
		{"no writer fence", false, true},
		{"no reader fence", true, false},
		{"no fences", false, false},
	} {
		rep, err := Check(context.Background(), gatedMP(tc.writerFence, tc.readerFence), order.Relaxed(), syncY, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.WellSynchronized {
			t.Errorf("%s: reported well synchronized", tc.name)
			continue
		}
		found := false
		for _, v := range rep.Violations {
			if v.Load == "Lx" && len(v.Candidates) > 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: violations %v do not implicate the data load", tc.name, rep.Violations)
		}
	}
}

// TestSyncAddressesExempt: under SC the same unfenced program is
// well-synchronized data-wise only when the guard is present; the flag
// load's nondeterminism never counts.
func TestSyncAddressesExempt(t *testing.T) {
	rep, err := Check(context.Background(), gatedMP(false, false), order.SC(), syncY, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Under SC the branch guard alone suffices: if Ly observed Sy then
	// Sx is the only candidate; the flag races but flags are exempt.
	if !rep.WellSynchronized {
		t.Errorf("SC gated MP racy: %v", rep.Violations)
	}
	// With nothing marked as a sync variable, the flag load itself
	// becomes a reported race.
	rep, err = Check(context.Background(), gatedMP(false, false), order.SC(), nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WellSynchronized {
		t.Error("flag load should race when not declared a sync variable")
	}
}

// TestViolationString formats readably.
func TestViolationString(t *testing.T) {
	v := Violation{Load: "Lx", Addr: program.X, Candidates: []string{"a", "b"}}
	if v.String() == "" {
		t.Error("empty rendering")
	}
}

// TestSingleThreadedIsWellSynchronized: no races without sharing.
func TestSingleThreadedIsWellSynchronized(t *testing.T) {
	b := program.NewBuilder()
	b.Thread("A").StoreL("S", program.X, 1).LoadL("L", 1, program.X)
	rep, err := Check(context.Background(), b.Build(), order.Relaxed(), nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.WellSynchronized {
		t.Errorf("single-threaded program racy: %v", rep.Violations)
	}
}

// TestCheckMatchesReference: the engine's hook reports must equal the
// reference engine's over every registry test under every model, with
// every address treated as data. Symmetry reduction would break this —
// a canonical representative reports a relabelled twin's loads and
// stores — which is why a CandidateHook keeps it off.
func TestCheckMatchesReference(t *testing.T) {
	ctx := context.Background()
	pairs := 0
	for _, lt := range litmus.Registry() {
		for _, m := range litmus.Models() {
			opts := core.Options{Speculative: m.Speculative}
			got, err := check(ctx, lt.Build(), m.Policy, nil, opts, core.Enumerate)
			if err != nil {
				t.Fatalf("%s/%s engine: %v", lt.Name, m.Name, err)
			}
			want, err := check(ctx, lt.Build(), m.Policy, nil, opts, core.EnumerateReference)
			if err != nil {
				t.Fatalf("%s/%s reference: %v", lt.Name, m.Name, err)
			}
			if g, w := reportSummary(got), reportSummary(want); g != w {
				t.Errorf("%s/%s: engine report differs from the reference\n got: %s\nwant: %s", lt.Name, m.Name, g, w)
			}
			pairs++
		}
	}
	if pairs < 200 {
		t.Errorf("checked %d registry pairs, want every test under every model", pairs)
	}
}

// reportSummary renders the verdict and each violation's load, address
// and candidate set (sorted: the engine and the reference list
// candidates in different orders).
func reportSummary(r *Report) string {
	s := fmt.Sprintf("well-synchronized=%v", r.WellSynchronized)
	for _, v := range r.Violations {
		cands := append([]string(nil), v.Candidates...)
		sort.Strings(cands)
		s += fmt.Sprintf("; %s@%d%v", v.Load, v.Addr, cands)
	}
	return s
}
