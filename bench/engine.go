package main

import (
	"time"

	"storeatomicity/internal/cli"
	"storeatomicity/internal/core"
	"storeatomicity/internal/telemetry"
)

// engineOpts is the engine configuration every workload runs, the
// default of the command-line tools: every pruning layer, copy-on-write
// forks, an unbounded seen-set and the automatic frontier budget.
func engineOpts() core.Options {
	var opts core.Options
	if err := cli.ApplyPrune(&opts, cli.PruneAll); err != nil {
		panic(err) // the constant grammar always parses
	}
	opts.FrontierResidentBytes = -1
	return opts
}

// engineTally sums what the engine reports per run for the workloads
// that call it directly. Counts are summed over the phase's first
// prefix ops only, so at width 1 they repeat exactly for a seed however
// many ops the phase completes; engine seconds cover every op.
type engineTally struct {
	prefix    int
	counted   int
	sum       core.Stats
	behaviors int
	peak      int64
	seconds   float64
}

// add records op i's result and the time its engine call took.
func (e *engineTally) add(i int, res *core.Result, d time.Duration) {
	e.seconds += d.Seconds()
	if i >= e.prefix {
		return
	}
	st := res.Stats
	e.counted++
	e.behaviors += len(res.Executions)
	if st.FrontierResidentPeak > e.peak {
		e.peak = st.FrontierResidentPeak
	}
	s := &e.sum
	s.StatesExplored += st.StatesExplored
	s.Forks += st.Forks
	s.ChildrenElided += st.ChildrenElided
	s.TrialRollbacks += st.TrialRollbacks
	s.FrontierDemoted += st.FrontierDemoted
	s.DuplicatesDiscarded += st.DuplicatesDiscarded
	s.PrefixPruned += st.PrefixPruned
	s.SymmetryPruned += st.SymmetryPruned
	s.Steals += st.Steals
	s.PoolHits += st.PoolHits
	s.PoolMisses += st.PoolMisses
	s.PoolDropped += st.PoolDropped
	s.CowRowsShared += st.CowRowsShared
	s.CowRowsCopied += st.CowRowsCopied
}

// snapshot renders the prefix sums under the engine metric names, so
// counts from Result.Stats and from telemetry.EnumMetrics map to the
// per-layer metrics through one function.
func (e *engineTally) snapshot() telemetry.Snapshot {
	s := e.sum
	return telemetry.Snapshot{
		"enum_states_explored_total":   int64(s.StatesExplored),
		"enum_behaviors_total":         int64(e.behaviors),
		"enum_forks_total":             int64(s.Forks),
		"enum_children_elided_total":   int64(s.ChildrenElided),
		"enum_trial_rollbacks_total":   int64(s.TrialRollbacks),
		"enum_dedup_hits_total":        int64(s.DuplicatesDiscarded),
		"prune_prefix_hits":            int64(s.PrefixPruned),
		"prune_symmetry_hits":          int64(s.SymmetryPruned),
		"enum_pool_hits_total":         int64(s.PoolHits),
		"enum_pool_misses_total":       int64(s.PoolMisses),
		"enum_pool_drops_total":        int64(s.PoolDropped),
		"enum_steals_total":            int64(s.Steals),
		"frontier_demoted_total":       int64(s.FrontierDemoted),
		"frontier_resident_peak_bytes": e.peak,
		"graph_cow_rows_shared_total":  s.CowRowsShared,
		"graph_cow_rows_copied_total":  s.CowRowsCopied,
	}
}

// coreLayer fills the core and graph per-layer metrics. counts holds
// the work counters over countOps ops; timing is the traced phase's
// engine metrics over all ops; engineSeconds is the phase's time inside
// the engine.
func coreLayer(v values, counts telemetry.Snapshot, countOps int, timing telemetry.Snapshot, ops int, engineSeconds float64) {
	per := func(snap telemetry.Snapshot, key string, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(snap[key]) / float64(n)
	}
	c := func(key string) float64 { return per(counts, key, countOps) }
	t := func(key string) float64 { return per(timing, key, ops) }

	v["core.states_explored"] = c("enum_states_explored_total")
	v["core.behaviors"] = c("enum_behaviors_total")
	v["core.forks"] = c("enum_forks_total")
	v["core.children_elided"] = c("enum_children_elided_total")
	v["core.materialize_ratio"] = ratio(c("enum_forks_total"), c("enum_children_elided_total"))
	v["core.trial_rollbacks"] = c("enum_trial_rollbacks_total")
	v["core.duplicates_discarded"] = c("enum_dedup_hits_total")
	v["core.prefix_pruned"] = c("prune_prefix_hits")
	v["core.symmetry_pruned"] = c("prune_symmetry_hits")
	v["core.pool_hit_ratio"] = ratio(c("enum_pool_hits_total"), c("enum_pool_misses_total"))
	v["core.pool_dropped"] = c("enum_pool_drops_total")
	v["core.steals"] = c("enum_steals_total")
	v["core.frontier_demoted"] = c("frontier_demoted_total")
	v["core.frontier_peak_kb"] = float64(counts["frontier_resident_peak_bytes"]) / 1024
	v["graph.cow_rows_copied"] = c("graph_cow_rows_copied_total")
	v["graph.cow_share_ratio"] = ratio(c("graph_cow_rows_shared_total"), c("graph_cow_rows_copied_total"))

	v["core.spill_runs"] = t("enum_dedup_spill_runs_total")
	v["core.spill_probes"] = t("enum_dedup_spill_probes_total")
	v["core.spill_compactions"] = t("enum_dedup_compactions_total")
	v["core.phase_generate_s"] = t("enum_phase_generate_ns_total") / 1e9
	v["core.phase_execute_s"] = t("enum_phase_execute_ns_total") / 1e9
	v["core.phase_resolve_s"] = t("enum_phase_resolve_ns_total") / 1e9
	v["core.state_us_p50"] = float64(timing["enum_state_ns_p50"]) / 1e3
	v["core.state_us_p99"] = float64(timing["enum_state_ns_p99"]) / 1e3
	v["graph.slab_kb"] = t("graph_slab_bytes_total") / 1024

	if ops > 0 {
		v["core.enumerate_s"] = engineSeconds / float64(ops)
	}
	if states := timing["enum_states_explored_total"]; states > 0 {
		v["core.us_per_state"] = engineSeconds / float64(states) * 1e6
	}
}
