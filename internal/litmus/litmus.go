// Package litmus defines the corpus of litmus tests used throughout the
// reproduction: the worked examples of the paper (Figures 3, 4, 5, 7, 8,
// and 10) and the classic multiprocessor tests (SB, MP, LB, IRIW, WRC,
// coherence tests) that exercise the model-comparison experiments.
//
// Each test carries machine-checkable expectations: outcomes that must be
// allowed or forbidden under named model configurations. Test functions
// and the suite runner live here so that unit tests, the mmlitmus command,
// and the benchmark harness all consume one source of truth.
package litmus

import (
	"context"

	"fmt"
	"sort"
	"sync"

	"storeatomicity/internal/core"
	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
)

// Outcome constrains load labels to observed values. An execution matches
// when every listed load observed the listed value (loads not listed are
// unconstrained).
type Outcome map[string]program.Value

// String renders the outcome canonically.
func (o Outcome) String() string {
	keys := make([]string, 0, len(o))
	for k := range o {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += ";"
		}
		s += fmt.Sprintf("%s=%d", k, o[k])
	}
	return s
}

// Model is a named enumeration configuration: a reordering policy plus the
// speculation switch.
type Model struct {
	Name        string
	Policy      order.Policy
	Speculative bool
}

// Models returns the standard configurations, strongest first. The
// speculative relaxed model is the Section 5 case study; NaiveTSO is the
// deliberately broken formulation from Figure 11.
func Models() []Model {
	return []Model{
		{Name: "SC", Policy: order.SC()},
		{Name: "TSO", Policy: order.TSO()},
		{Name: "NaiveTSO", Policy: order.NaiveTSO()},
		{Name: "PSO", Policy: order.PSO()},
		{Name: "Relaxed", Policy: order.Relaxed()},
		{Name: "Relaxed+spec", Policy: order.Relaxed(), Speculative: true},
	}
}

// ModelByName returns the standard configuration with the given name.
func ModelByName(name string) (Model, bool) {
	for _, m := range Models() {
		if m.Name == name {
			return m, true
		}
	}
	return Model{}, false
}

// Expectation records, for one model configuration, outcomes the model
// must produce and outcomes it must never produce.
type Expectation struct {
	Model     string
	Allowed   []Outcome
	Forbidden []Outcome
}

// Test is one litmus test with its expectations.
type Test struct {
	// Name is the conventional short name ("SB", "Figure3").
	Name string
	// Doc describes what the test demonstrates and where it comes from.
	Doc string
	// Build constructs a fresh program (programs are mutated by
	// builders, never shared).
	Build func() *program.Program
	// Expect lists per-model requirements.
	Expect []Expectation
}

// Run enumerates the test under one model configuration.
func Run(t *Test, m Model) (*core.Result, error) {
	return RunContext(context.Background(), t, m, core.Options{}, 1)
}

// RunParallel enumerates with the work-stealing engine. The behavior set
// is identical to Run's; workers <= 0 uses one worker per CPU.
func RunParallel(t *Test, m Model, workers int) (*core.Result, error) {
	return RunContext(context.Background(), t, m, core.Options{}, workers)
}

// RunContext enumerates the test under ctx with caller-supplied options
// (the model configuration overrides opts.Speculative) at the given engine
// width. Cancellation, deadlines, and budgets return partial results with
// Result.Incomplete set — see core.Enumerate.
func RunContext(ctx context.Context, t *Test, m Model, opts core.Options, workers int) (*core.Result, error) {
	opts.Speculative = m.Speculative
	return core.EnumerateParallel(ctx, t.Build(), m.Policy, opts, workers)
}

// CheckResult verifies a result against the test's expectations for the
// model, returning a list of human-readable violations (empty = pass).
func CheckResult(t *Test, modelName string, res *core.Result) []string {
	var bad []string
	for _, ex := range t.Expect {
		if ex.Model != modelName {
			continue
		}
		for _, o := range ex.Allowed {
			if !res.HasOutcome(map[string]program.Value(o)) {
				bad = append(bad, fmt.Sprintf("%s/%s: outcome %s must be allowed but was not produced", t.Name, modelName, o))
			}
		}
		for _, o := range ex.Forbidden {
			if res.HasOutcome(map[string]program.Value(o)) {
				bad = append(bad, fmt.Sprintf("%s/%s: outcome %s must be forbidden but was produced", t.Name, modelName, o))
			}
		}
	}
	return bad
}

// Registry returns the full corpus: paper figures first, then classics
// and the read-modify-write extension tests.
func Registry() []*Test {
	var all []*Test
	all = append(all, Figures()...)
	all = append(all, Classics()...)
	all = append(all, Symmetric()...)
	all = append(all, Extras()...)
	all = append(all, Atomics()...)
	all = append(all, Membars()...)
	return all
}

// byName indexes one Registry() by test name, built on first use.
var byName = sync.OnceValue(func() map[string]*Test {
	idx := map[string]*Test{}
	for _, t := range Registry() {
		idx[t.Name] = t
	}
	return idx
})

// ByName returns the registered test with the given name. Unlike
// Registry, it hands every caller the same *Test, which callers must not
// modify.
func ByName(name string) (*Test, bool) {
	t, ok := byName()[name]
	return t, ok
}
