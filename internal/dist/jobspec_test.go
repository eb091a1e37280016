package dist_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"storeatomicity/internal/cli"
	"storeatomicity/internal/core"
	"storeatomicity/internal/dist"
)

// TestJobSpecResolvesProductionEngine: a spec that names no engine
// configuration, or names the production one, resolves to the one
// configuration the engine has — so the distributed equivalence suites,
// which send JobSpec{Test, Model}, run prefix and symmetry pruning in
// every shard.
func TestJobSpecResolvesProductionEngine(t *testing.T) {
	for _, job := range []dist.JobSpec{
		{Test: "SB3", Model: "Relaxed"},
		{Test: "SB3", Model: "Relaxed", Prune: "all", COW: "on"},
		{Test: "SB3", Model: "Relaxed", Prune: cli.PruneAll, COW: "on"},
	} {
		tst, m, opts, err := job.Resolve()
		if err != nil {
			t.Fatalf("%+v: %v", job, err)
		}
		if !reflect.DeepEqual(opts, core.Options{Speculative: m.Speculative}) {
			t.Errorf("%+v resolved to %+v, want the default options", job, opts)
		}
		res, err := core.Enumerate(context.Background(), tst.Build(), m.Policy, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.PrefixPruned == 0 || res.Stats.SymmetryPruned == 0 {
			t.Errorf("%+v: resolved engine did not prune (prefix %d, symmetry %d)",
				job, res.Stats.PrefixPruned, res.Stats.SymmetryPruned)
		}
	}
}

// TestJobSpecRefusesOverflowingBudget: a byte budget arriving over the
// wire whose total overflows int64 is refused, not wrapped negative into
// an unbounded seen-set.
func TestJobSpecRefusesOverflowingBudget(t *testing.T) {
	job := dist.JobSpec{Test: "MP", Model: "Relaxed", DedupMem: "9999999999g"}
	if _, _, _, err := job.Resolve(); err == nil || !strings.Contains(err.Error(), "bad -dedup-mem") {
		t.Errorf("Resolve err = %v, want one refusing -dedup-mem %q", err, job.DedupMem)
	}
}

// TestJobSpecRefusesRemovedModes: a coordinator built before -prune and
// -cow were removed sends the configuration it was started with. The
// program hash leaves the engine configuration out, so Resolve is what
// refuses a spec asking for a configuration the engine no longer has,
// naming the removed flag.
func TestJobSpecRefusesRemovedModes(t *testing.T) {
	for _, c := range []struct {
		job  dist.JobSpec
		flag string
	}{
		{dist.JobSpec{Test: "MP", Model: "Relaxed", Prune: "off"}, "-prune"},
		{dist.JobSpec{Test: "MP", Model: "Relaxed", Prune: "closure,prefix"}, "-prune"},
		{dist.JobSpec{Test: "MP", Model: "Relaxed", COW: "off"}, "-cow"},
	} {
		if _, _, _, err := c.job.Resolve(); err == nil || !strings.Contains(err.Error(), c.flag+" flag was removed") {
			t.Errorf("%+v: Resolve err = %v, want one naming the removed %s flag", c.job, err, c.flag)
		}
	}
}
