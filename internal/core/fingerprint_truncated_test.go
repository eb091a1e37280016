package core_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
)

// truncated runs a registry test at width 1 and reports whether the
// behavior budget stopped it.
func truncated(t *testing.T, lt *litmus.Test, m litmus.Model, opts core.Options) (*core.Result, bool) {
	t.Helper()
	res, err := litmus.RunContext(context.Background(), lt, m, opts, 1)
	if err != nil && !errors.Is(err, core.ErrIncomplete) {
		t.Fatalf("%s/%s %+v: %v", lt.Name, m.Name, opts, err)
	}
	return res, res.Incomplete != nil && res.Incomplete.Reason == core.ReasonMaxBehaviors
}

// TestFingerprintExclusionsHoldWhenTruncated pins the cache-key contract
// of core.ProgramFingerprint where it is easiest to break: MaxBehaviors
// is in the key and the dedup and frontier budgets are not, so a width-1
// run that the behavior budget stops must return the same executions
// under any dedup or frontier budget (neither may change the
// exploration order). It covers every registry test under every model
// at MaxBehaviors 2, 5, 10, 20 and 50, keeping the keys that stop on the
// budget.
func TestFingerprintExclusionsHoldWhenTruncated(t *testing.T) {
	keys := 0
	for _, lt := range litmus.Registry() {
		for _, m := range litmus.Models() {
			for _, budget := range []int{2, 5, 10, 20, 50} {
				want, stopped := truncated(t, lt, m, core.Options{MaxBehaviors: budget})
				if !stopped {
					continue
				}
				keys++
				for name, opts := range map[string]core.Options{
					"DedupMemBudget=256":      {MaxBehaviors: budget, DedupMemBudget: 256},
					"FrontierResidentBytes=1": {MaxBehaviors: budget, FrontierResidentBytes: 1},
				} {
					got, stopped := truncated(t, lt, m, opts)
					if !stopped || !slices.Equal(behaviorKeys(got), behaviorKeys(want)) {
						t.Errorf("%s/%s MaxBehaviors=%d: %s returned %d executions (budget stop %v), the default %d",
							lt.Name, m.Name, budget, name, len(got.Executions), stopped, len(want.Executions))
					}
				}
			}
		}
	}
	if keys < 300 {
		t.Errorf("only %d keys stopped on the budget; the sweep no longer exercises truncation", keys)
	}
}
