package litmus

import (
	"context"
	"testing"

	"storeatomicity/internal/core"
	"storeatomicity/internal/telemetry"
)

// TestSeqParMetricEquivalence runs the E2–E5 experiments (the paper's
// Figure 3, 4, 5, and 7 under the relaxed model) through both engines
// with a fresh metric registry each and checks the order-independent
// totals are identical: fork count, dedup hits, states explored,
// rollbacks, and behaviors. Only enum_steals_total may differ — it is
// structurally zero for the sequential engine. This pins the tentpole
// guarantee that telemetry reports the run, not the engine.
func TestSeqParMetricEquivalence(t *testing.T) {
	m, ok := ModelByName("Relaxed")
	if !ok {
		t.Fatal("Relaxed model missing")
	}
	equal := []string{
		"enum_states_explored_total",
		"enum_forks_total",
		"enum_dedup_hits_total",
		"enum_rollbacks_total",
		"enum_behaviors_total",
	}
	for _, name := range []string{"Figure3", "Figure4", "Figure5", "Figure7"} {
		tc, ok := ByName(name)
		if !ok {
			t.Fatalf("test %s missing", name)
		}
		seqMet := telemetry.NewEnumMetrics(nil)
		seq, err := RunContext(context.Background(), tc, m, core.Options{Metrics: seqMet}, 1)
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		parMet := telemetry.NewEnumMetrics(nil)
		par, err := RunContext(context.Background(), tc, m, core.Options{Metrics: parMet}, 4)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		ss, ps := seqMet.Snapshot(), parMet.Snapshot()
		for _, k := range equal {
			if ss[k] != ps[k] {
				t.Errorf("%s: %s sequential %d != parallel %d", name, k, ss[k], ps[k])
			}
		}
		if ss["enum_steals_total"] != 0 {
			t.Errorf("%s: sequential engine reported %d steals", name, ss["enum_steals_total"])
		}
		if ss["enum_workers"] != 1 || ps["enum_workers"] != 4 {
			t.Errorf("%s: workers gauges %d/%d, want 1/4", name, ss["enum_workers"], ps["enum_workers"])
		}
		if len(seq.Executions) != len(par.Executions) {
			t.Errorf("%s: behavior sets differ: %d vs %d", name, len(seq.Executions), len(par.Executions))
		}
		// The snapshot agrees with the Stats struct on both engines.
		if ss["enum_forks_total"] != int64(seq.Stats.Forks) || ps["enum_forks_total"] != int64(par.Stats.Forks) {
			t.Errorf("%s: snapshot forks disagree with Stats", name)
		}
	}
}
