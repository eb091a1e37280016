package core

import (
	"context"
	"reflect"

	"strings"
	"testing"

	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
)

// figure7 builds the paper's Figure 7 program.
func figure7() *program.Program {
	b := program.NewBuilder()
	b.Thread("A").
		StoreL("S1", program.X, 1).
		Fence().
		StoreL("S3", program.Y, 3).
		LoadL("L6", 1, program.Y)
	b.Thread("B").
		StoreL("S4", program.Y, 4).
		Fence().
		LoadL("L5", 2, program.X)
	b.Thread("C").
		StoreL("S2", program.X, 2)
	return b.Build()
}

// TestFigure7ClosureDerivesEdgeD is experiment E5: in the execution with
// L5 = 2 and L6 = 4, the iterated closure must discover S3 @ S4 (the
// paper's edge c) and then S1 @ S2 (edge d) — the second edge is exposed
// only by the first.
func TestFigure7ClosureDerivesEdgeD(t *testing.T) {
	res, err := Enumerate(context.Background(), figure7(), order.Relaxed(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := res.FindOutcome(map[string]program.Value{"L5": 2, "L6": 4})
	if e == nil {
		t.Fatal("execution with L5=2, L6=4 not found")
	}
	s1 := e.NodeByLabel("S1")
	s2 := e.NodeByLabel("S2")
	s3 := e.NodeByLabel("S3")
	s4 := e.NodeByLabel("S4")
	if s1 == nil || s2 == nil || s3 == nil || s4 == nil {
		t.Fatal("labeled nodes missing")
	}
	if !e.Graph.Before(s3.ID, s4.ID) {
		t.Error("edge c (S3 @ S4) not derived")
	}
	if !e.Graph.Before(s1.ID, s2.ID) {
		t.Error("edge d (S1 @ S2) not derived — closure did not iterate")
	}
}

// TestFigure5RuleCEdge asserts the Figure 5 rule-c conclusion directly on
// the graph: with the pairings fixed, S1 @ L7 must hold.
func TestFigure5RuleCEdge(t *testing.T) {
	b := program.NewBuilder()
	b.Thread("A").
		StoreL("S1", program.X, 1).Fence().
		LoadL("L3", 1, program.Y).LoadL("L5", 2, program.Y)
	b.Thread("B").
		StoreL("S2", program.Y, 2).Fence().StoreL("S6", program.Z, 6)
	b.Thread("C").
		StoreL("S4", program.Y, 4).Fence().
		LoadL("L7", 3, program.Z).Fence().
		StoreL("S8", program.X, 8).LoadL("L9", 4, program.X)
	res, err := Enumerate(context.Background(), b.Build(), order.Relaxed(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := res.FindOutcome(map[string]program.Value{"L3": 2, "L5": 4, "L7": 6})
	if e == nil {
		t.Fatal("pairing execution not found")
	}
	if !e.Graph.Before(e.NodeByLabel("S1").ID, e.NodeByLabel("L7").ID) {
		t.Error("rule c edge S1 @ L7 not derived")
	}
}

// TestBranchControlsStores: a thread branches on a loaded flag and only
// stores when the flag was clear; enumeration must produce exactly the
// executions consistent with each branch outcome.
func TestBranchControlsStores(t *testing.T) {
	b := program.NewBuilder()
	ta := b.Thread("A")
	ta.LoadL("Lflag", 1, program.X)
	// if r1 != 0 jump over the store
	ta.Branch(1, 3)
	ta.StoreL("Sy", program.Y, 1)
	// index 3: join
	ta.LoadL("Lafter", 2, program.Y)
	b.Thread("B").StoreL("Sx", program.X, 1)
	res, err := Enumerate(context.Background(), b.Build(), order.SC(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Flag=1 → store skipped → Lafter must read 0.
	if res.HasOutcome(map[string]program.Value{"Lflag": 1, "Lafter": 1}) {
		t.Error("store executed although the branch skipped it")
	}
	if !res.HasOutcome(map[string]program.Value{"Lflag": 1, "Lafter": 0}) {
		t.Error("taken-branch execution missing")
	}
	// Flag=0 → store runs; under SC Lafter follows it in program order.
	if !res.HasOutcome(map[string]program.Value{"Lflag": 0, "Lafter": 1}) {
		t.Error("fallthrough execution missing")
	}
	if res.HasOutcome(map[string]program.Value{"Lflag": 0, "Lafter": 0}) {
		t.Error("SC let the post-store load read a stale value")
	}
}

// TestBoundedLoop: a countdown loop terminates and leaves the final value.
func TestBoundedLoop(t *testing.T) {
	b := program.NewBuilder()
	tb := b.Thread("A")
	tb.Op(1, func([]program.Value) program.Value { return 3 })
	body := tb.Len()
	tb.Op(1, func(a []program.Value) program.Value { return a[0] - 1 }, 1)
	tb.Branch(1, body)
	tb.StoreReg(program.X, 1)
	tb.LoadL("Lx", 2, program.X)
	res, err := Enumerate(context.Background(), b.Build(), order.SC(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Executions) != 1 {
		t.Fatalf("%d executions of a deterministic loop", len(res.Executions))
	}
	if v := res.Executions[0].LoadValues()["Lx"]; v != 0 {
		t.Errorf("loop left %d, want 0", v)
	}
}

// TestInfiniteLoopHitsNodeBudget: the paper notes its procedure "is not a
// normalizing strategy"; the engine must fail cleanly instead of spinning.
func TestInfiniteLoopHitsNodeBudget(t *testing.T) {
	b := program.NewBuilder()
	tb := b.Thread("A")
	tb.Op(1, func([]program.Value) program.Value { return 1 })
	tb.Branch(1, 0)
	_, err := Enumerate(context.Background(), b.Build(), order.SC(), Options{MaxNodes: 64})
	if err == nil || !strings.Contains(err.Error(), "node budget") {
		t.Errorf("err = %v, want node-budget failure", err)
	}
}

// TestUninitializedRegisterReadsZero: branching on a never-written
// register falls through.
func TestUninitializedRegisterReadsZero(t *testing.T) {
	b := program.NewBuilder()
	tb := b.Thread("A")
	tb.Branch(9, 2) // r9 never written → not taken
	tb.StoreL("S", program.X, 5)
	tb.LoadL("L", 1, program.X)
	res, err := Enumerate(context.Background(), b.Build(), order.SC(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasOutcome(map[string]program.Value{"L": 5}) {
		t.Errorf("outcomes %v", res.OutcomeSet())
	}
}

// TestOpDataflow: values computed by ops feed stores.
func TestOpDataflow(t *testing.T) {
	b := program.NewBuilder()
	tb := b.Thread("A")
	tb.LoadL("La", 1, program.X)
	tb.Op(2, func(a []program.Value) program.Value { return a[0]*10 + 7 }, 1)
	tb.StoreReg(program.Y, 2)
	tb.LoadL("Lb", 3, program.Y)
	p := b.Build()
	p.Init[program.X] = 4
	res, err := Enumerate(context.Background(), p, order.SC(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasOutcome(map[string]program.Value{"La": 4, "Lb": 47}) {
		t.Errorf("outcomes %v", res.OutcomeSet())
	}
}

// TestLateInitStore: a location only ever reached through a pointer still
// gets an initializing store.
func TestLateInitStore(t *testing.T) {
	b := program.NewBuilder()
	b.Init(program.X, program.AddrValue(program.U))
	tb := b.Thread("A")
	tb.LoadL("Lp", 1, program.X)
	tb.LoadIndL("Ld", 2, 1)
	res, err := Enumerate(context.Background(), b.Build(), order.SC(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasOutcome(map[string]program.Value{"Ld": 0}) {
		t.Errorf("pointer chase outcomes %v", res.OutcomeSet())
	}
}

// TestIndirectStoreThenLoad exercises register-addressed stores with the
// same-address edge discovered at runtime.
func TestIndirectStoreThenLoad(t *testing.T) {
	b := program.NewBuilder()
	b.Init(program.X, program.AddrValue(program.U))
	tb := b.Thread("A")
	tb.LoadL("Lp", 1, program.X)
	tb.StoreInd(1, 55)
	tb.LoadIndL("Ld", 2, 1)
	for _, spec := range []bool{false, true} {
		res, err := Enumerate(context.Background(), b.Build(), order.Relaxed(), Options{Speculative: spec})
		if err != nil {
			t.Fatal(err)
		}
		if !res.HasOutcome(map[string]program.Value{"Ld": 55}) {
			t.Errorf("spec=%v: outcomes %v", spec, res.OutcomeSet())
		}
		// Single-thread determinism: the stale read must be absent
		// non-speculatively AND speculatively (wrong guesses roll
		// back).
		if res.HasOutcome(map[string]program.Value{"Ld": 0}) {
			t.Errorf("spec=%v: stale read through pointer allowed", spec)
		}
	}
}

// TestDedupAblation: disabling the Load–Store-graph dedup must not change
// the behavior set, only the work (experiment: DESIGN.md ablation).
func TestDedupAblation(t *testing.T) {
	p := figure7()
	on, err := Enumerate(context.Background(), p, order.Relaxed(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Enumerate(context.Background(), p, order.Relaxed(), Options{DisableDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	setOf := func(r *Result) map[string]bool {
		m := map[string]bool{}
		for _, e := range r.Executions {
			m[e.SourceKey()] = true
		}
		return m
	}
	a, b := setOf(on), setOf(off)
	if len(a) != len(b) {
		t.Fatalf("dedup changed behavior count: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Errorf("behavior %s missing without dedup", k)
		}
	}
	if off.Stats.StatesExplored < on.Stats.StatesExplored {
		t.Errorf("dedup-off explored fewer states (%d) than dedup-on (%d)",
			off.Stats.StatesExplored, on.Stats.StatesExplored)
	}
	if on.Stats.PrefixPruned+on.Stats.SymmetryPruned == 0 {
		t.Log("note: no duplicates pruned on this input")
	}
}

// TestMaxBehaviorsBudget errors out instead of running away.
func TestMaxBehaviorsBudget(t *testing.T) {
	p := figure7()
	_, err := Enumerate(context.Background(), p, order.Relaxed(), Options{MaxBehaviors: 2})
	if err == nil || !strings.Contains(err.Error(), "behavior budget") {
		t.Errorf("err = %v", err)
	}
}

// TestExecutionAccessors covers the Execution convenience API.
func TestExecutionAccessors(t *testing.T) {
	b := program.NewBuilder()
	b.Thread("A").StoreL("S", program.X, 3).LoadL("L", 1, program.X)
	res, err := Enumerate(context.Background(), b.Build(), order.SC(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Executions) != 1 {
		t.Fatalf("%d executions", len(res.Executions))
	}
	e := res.Executions[0]
	if e.Key() != "L=3" {
		t.Errorf("Key = %q", e.Key())
	}
	if e.SourceKey() != "L<-S" {
		t.Errorf("SourceKey = %q", e.SourceKey())
	}
	if e.NodeByLabel("S") == nil || e.NodeByLabel("missing") != nil {
		t.Error("NodeByLabel misbehaves")
	}
	l := e.NodeByLabel("L")
	if e.Source(l.ID) != e.NodeByLabel("S").ID {
		t.Error("Source accessor wrong")
	}
	if srcs := e.LoadSources(); srcs["L"] != "S" {
		t.Errorf("LoadSources %v", srcs)
	}
	ids := e.MemoryNodeIDs()
	if len(ids) != 3 { // init:x, S, L
		t.Errorf("MemoryNodeIDs %v", ids)
	}
	if !strings.Contains(e.String(), "L=3") || !strings.Contains(e.String(), "SC") {
		t.Errorf("String:\n%s", e.String())
	}
	if !strings.Contains(l.String(), "src=") {
		t.Errorf("node String: %s", l.String())
	}
}

// TestResultHelpers covers OutcomeSet / HasOutcome / FindOutcome edge
// cases.
func TestResultHelpers(t *testing.T) {
	res, err := Enumerate(context.Background(), sbProgram(), order.SC(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.HasOutcome(map[string]program.Value{"La": 9}) {
		t.Error("impossible outcome reported")
	}
	if res.FindOutcome(nil) == nil {
		t.Error("empty constraint should match any execution")
	}
	if len(res.OutcomeSet()) == 0 {
		t.Error("no outcomes")
	}
}

// TestEnumerationIsDeterministic: same inputs, same behavior set and
// stats.
func TestEnumerationIsDeterministic(t *testing.T) {
	a, err := Enumerate(context.Background(), figure7(), order.Relaxed(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Enumerate(context.Background(), figure7(), order.Relaxed(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) || len(a.Executions) != len(b.Executions) {
		t.Errorf("nondeterministic enumeration: %+v vs %+v", a.Stats, b.Stats)
	}
	for i := range a.Executions {
		if a.Executions[i].SourceKey() != b.Executions[i].SourceKey() {
			t.Errorf("execution %d differs", i)
		}
	}
}
