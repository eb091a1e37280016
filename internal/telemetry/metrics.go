package telemetry

// Domain metric bundles: the enumeration engines and the operational
// machine each get a struct of pre-registered metrics with nil-safe
// event methods, so the instrumented packages never touch the registry
// and a nil bundle is a complete no-op.

// Candidate-set sizes are tiny (the paper's candidates(L) is usually
// 1–4 stores); checkpoint latencies span µs to seconds.
var (
	candidateBounds  = []int64{0, 1, 2, 3, 4, 6, 8, 16}
	latencyNsBounds  = []int64{1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}
	frontierLogScale = []int64{1, 4, 16, 64, 256, 1024, 4096, 16384}
	worklistBounds   = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	// Per-state quiescence runs sub-µs to ms, an order finer than the
	// checkpoint/shard latency scale.
	stateNsBounds = []int64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}
)

// EnumMetrics instruments the enumeration engine at any width. All
// methods are nil-safe; shard is the worker index (0 at width 1).
type EnumMetrics struct {
	reg *Registry

	Explored   *Counter
	Forks      *Counter
	PoolHits   *Counter
	PoolMisses *Counter
	DedupHits  *Counter
	Rollbacks  *Counter
	Steals     *Counter
	Behaviors  *Counter

	// Search-pruning instrumentation: forks killed at fork time by the
	// prefix/symmetry seen-set, candidate scans skipped by the
	// eligibility cache, and incremental-closure worklist sizes.
	PrunePrefix   *Counter
	PruneSymmetry *Counter
	DirtySkips    *Counter
	WorklistLen   *Histogram

	// Fork-elision instrumentation: candidate children evaluated by
	// trial-applying the resolution on the parent and never queued
	// (ChildrenElided), and the subset whose trial was undone because the
	// resolution or closure failed (TrialRollbacks).
	ChildrenElided *Counter
	TrialRollbacks *Counter

	// Path-compressed frontier instrumentation: queued states demoted to
	// compressed replay paths, and the resident frontier bytes (live and
	// high-water) the demotion budget governs.
	FrontierDemoted      *Counter
	FrontierResident     *Gauge
	FrontierResidentPeak *Gauge

	// Copy-on-write fork instrumentation: closure rows adopted by
	// reference at fork time vs copied on first write, slab arena bytes
	// allocated, and retired states the pool dropped for pinning an
	// oversized arena. Folded from the graph layer's per-family counters
	// at end of run (internal/graph stays telemetry-free).
	CowRowsShared *Counter
	CowRowsCopied *Counter
	SlabBytes     *Counter
	PoolDrops     *Counter

	// Tiered-dedup spill instrumentation: sorted fingerprint runs
	// flushed to disk by a budgeted seen-set, and cold lookups that had
	// to probe them. The gauges expose the tier's live shape — run
	// files on disk, merge compactions, and resident-vs-budget bytes —
	// so a spilling run can be watched, not just post-mortemed.
	SpillRuns        *Counter
	SpillProbes      *Counter
	SpillCompactions *Counter
	DedupRunFiles    *Gauge
	DedupResident    *Gauge
	DedupBudget      *Gauge

	// Phase-time counters map to Section 4 of the paper: graph
	// generation (step 1), dataflow execution + atomicity closure
	// (step 2), and Load Resolution forking (step 3).
	GenerateNs *Counter
	ExecuteNs  *Counter
	ResolveNs  *Counter

	Frontier     *Gauge
	Workers      *Gauge
	Candidates   *Histogram
	FrontierHist *Histogram
	CheckpointNs *Histogram
	// StateNs is the per-state settle latency (one work item's
	// quiescence pass) — its exported quantiles are the engine's tail
	// latency in bench/'s core.state_us_p50 and core.state_us_p99.
	StateNs *Histogram
}

// NewEnumMetrics registers the enumeration metric set on reg (a private
// registry when reg is nil).
func NewEnumMetrics(reg *Registry) *EnumMetrics {
	if reg == nil {
		reg = NewRegistry()
	}
	m := &EnumMetrics{reg: reg}
	m.Explored = reg.NewCounter("enum_states_explored_total", "behaviors removed from the work set")
	m.Forks = reg.NewCounter("enum_forks_total", "child states materialized and queued (pruned, rolled-back, and leaf-elided candidates never fork)")
	m.PoolHits = reg.NewCounter("enum_pool_hits_total", "forks served from a recycled state")
	m.PoolMisses = reg.NewCounter("enum_pool_misses_total", "forks that allocated a fresh state")
	m.DedupHits = reg.NewCounter("enum_dedup_hits_total", "forks dropped by Load-Store-graph dedup")
	m.Rollbacks = reg.NewCounter("enum_rollbacks_total", "behaviors discarded as inconsistent")
	m.Steals = reg.NewCounter("enum_steals_total", "work items stolen from another worker's deque")
	m.Behaviors = reg.NewCounter("enum_behaviors_total", "distinct final executions recorded")
	m.PrunePrefix = reg.NewCounter("prune_prefix_hits", "forks dropped at fork time by prefix-state dedup")
	m.PruneSymmetry = reg.NewCounter("prune_symmetry_hits", "forks dropped at fork time by symmetry canonicalization")
	m.DirtySkips = reg.NewCounter("candidates_dirty_skips", "eligibility checks served from the per-load dirty-bit cache")
	m.CowRowsShared = reg.NewCounter("graph_cow_rows_shared_total", "closure rows adopted by reference at fork time")
	m.CowRowsCopied = reg.NewCounter("graph_cow_rows_copied_total", "closure rows copied into a writer's slab on first write")
	m.SlabBytes = reg.NewCounter("graph_slab_bytes_total", "bytes allocated to slab arenas")
	m.PoolDrops = reg.NewCounter("enum_pool_drops_total", "retired states dropped for pinning an oversized slab arena")
	m.WorklistLen = reg.NewHistogramMetric("closure_worklist_len", "incremental-closure worklist size per pass", worklistBounds)
	m.ChildrenElided = reg.NewCounter("enum_children_elided_total", "candidate children evaluated in place on the parent and never queued")
	m.TrialRollbacks = reg.NewCounter("enum_trial_rollbacks_total", "trial applications undone in place (failed resolution or closure)")
	m.FrontierDemoted = reg.NewCounter("frontier_demoted_total", "queued states demoted to compressed replay paths")
	m.FrontierResident = reg.NewGauge("frontier_resident_bytes", "bytes of fully materialized states on the work queues")
	m.FrontierResidentPeak = reg.NewGauge("frontier_resident_peak_bytes", "high-water mark of frontier_resident_bytes this run")
	m.SpillRuns = reg.NewCounter("enum_dedup_spill_runs_total", "sorted fingerprint runs flushed to disk by a budgeted seen-set")
	m.SpillProbes = reg.NewCounter("enum_dedup_spill_probes_total", "dedup lookups that missed the hot tier and probed on-disk runs")
	m.SpillCompactions = reg.NewCounter("enum_dedup_compactions_total", "loser-tree merges of on-disk runs triggered by the run-count cap")
	m.DedupRunFiles = reg.NewGauge("enum_dedup_runfiles", "on-disk sorted runs currently live in the spill tier")
	m.DedupResident = reg.NewGauge("enum_dedup_resident_bytes", "estimated bytes resident in the hot dedup tier")
	m.DedupBudget = reg.NewGauge("enum_dedup_budget_bytes", "configured dedup memory budget (0 = unbudgeted)")
	m.GenerateNs = reg.NewCounter("enum_phase_generate_ns_total", "time in graph generation (Section 4 step 1)")
	m.ExecuteNs = reg.NewCounter("enum_phase_execute_ns_total", "time in dataflow execution + closure (step 2)")
	m.ResolveNs = reg.NewCounter("enum_phase_resolve_ns_total", "time in Load Resolution forking (step 3)")
	m.Frontier = reg.NewGauge("enum_frontier_depth", "behaviors currently queued or in flight")
	m.Workers = reg.NewGauge("enum_workers", "engine worker count of the most recent run")
	m.Candidates = reg.NewHistogramMetric("enum_candidates", "candidates(L) set-size distribution", candidateBounds)
	m.FrontierHist = reg.NewHistogramMetric("enum_frontier", "frontier depth sampled per state", frontierLogScale)
	m.CheckpointNs = reg.NewHistogramMetric("enum_checkpoint_ns", "checkpoint write latency", latencyNsBounds)
	m.StateNs = reg.NewHistogramMetric("enum_state_ns", "per-state quiescence latency", stateNsBounds)
	return m
}

// Registry returns the registry backing the bundle (nil-safe).
func (m *EnumMetrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// Snapshot flattens the bundle's registry (nil-safe).
func (m *EnumMetrics) Snapshot() Snapshot {
	if m == nil {
		return nil
	}
	return m.reg.Snapshot()
}

// MachineMetrics instruments the operational machine and the coherence
// bus. All methods are nil-safe; the simulator is single-threaded per
// run, so everything lands on shard 0 (atomics keep concurrent sweeps
// safe regardless).
type MachineMetrics struct {
	reg *Registry

	Steps  *Counter
	Stalls *Counter
	Runs   *Counter

	BusOps        *Counter
	ReadHits      *Counter
	ReadMisses    *Counter
	Invalidations *Counter
	Writebacks    *Counter

	FaultDelays   *Counter
	FaultReorders *Counter
	FaultRetries  *Counter
	FaultStalls   *Counter
}

// NewMachineMetrics registers the machine/coherence metric set on reg (a
// private registry when reg is nil).
func NewMachineMetrics(reg *Registry) *MachineMetrics {
	if reg == nil {
		reg = NewRegistry()
	}
	m := &MachineMetrics{reg: reg}
	m.Steps = reg.NewCounter("machine_steps_total", "instructions issued")
	m.Stalls = reg.NewCounter("machine_stalls_total", "scheduler steps burned by fault-stalled instructions")
	m.Runs = reg.NewCounter("machine_runs_total", "completed simulation runs")
	m.BusOps = reg.NewCounter("coherence_bus_ops_total", "bus transactions raised")
	m.ReadHits = reg.NewCounter("coherence_read_hits_total", "loads served from a local S/M copy")
	m.ReadMisses = reg.NewCounter("coherence_read_misses_total", "loads that raised a bus read")
	m.Invalidations = reg.NewCounter("coherence_invalidations_total", "copies killed by remote writes")
	m.Writebacks = reg.NewCounter("coherence_writebacks_total", "M copies flushed to memory")
	m.FaultDelays = reg.NewCounter("coherence_fault_delays_total", "transactions hit by an injected stall")
	m.FaultReorders = reg.NewCounter("coherence_fault_reorders_total", "transactions deferred behind another bus op")
	m.FaultRetries = reg.NewCounter("coherence_fault_retries_total", "NACKed ownership transfers")
	m.FaultStalls = reg.NewCounter("coherence_fault_stall_cycles_total", "scheduler steps burned by injected faults")
	return m
}

// Registry returns the registry backing the bundle (nil-safe).
func (m *MachineMetrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// Snapshot flattens the bundle's registry (nil-safe).
func (m *MachineMetrics) Snapshot() Snapshot {
	if m == nil {
		return nil
	}
	return m.reg.Snapshot()
}

// DistMetrics instruments the distributed coordinator/worker layer:
// shard leasing, heartbeat traffic, the retry/backoff discipline, and
// the fingerprint exchange. Coordinator and worker each hold their own
// bundle; all methods are nil-safe.
type DistMetrics struct {
	reg *Registry

	ShardsDone    *Counter
	LeasesGranted *Counter
	LeasesExpired *Counter
	Retries       *Counter
	Heartbeats    *Counter
	Fingerprints  *Counter
	Duplicates    *Counter

	ShardsTotal *Gauge
	WorkersLive *Gauge

	ShardNs *Histogram
}

// NewDistMetrics registers the distributed metric set on reg (a private
// registry when reg is nil).
func NewDistMetrics(reg *Registry) *DistMetrics {
	if reg == nil {
		reg = NewRegistry()
	}
	m := &DistMetrics{reg: reg}
	m.ShardsDone = reg.NewCounter("dist_shards_done_total", "shards completed and accepted by the coordinator")
	m.LeasesGranted = reg.NewCounter("dist_leases_granted_total", "shard leases handed to workers")
	m.LeasesExpired = reg.NewCounter("dist_leases_expired_total", "leases returned to the queue by expiry or a lost worker")
	m.Retries = reg.NewCounter("dist_retries_total", "worker->coordinator calls retried after a transport or server error")
	m.Heartbeats = reg.NewCounter("dist_heartbeats_total", "heartbeats processed")
	m.Fingerprints = reg.NewCounter("dist_fingerprints_total", "dedup fingerprints exchanged between shards")
	m.Duplicates = reg.NewCounter("dist_duplicate_results_total", "shard completions rejected as duplicates (idempotent resubmission)")
	m.ShardsTotal = reg.NewGauge("dist_shards", "shards in this run's partition")
	m.WorkersLive = reg.NewGauge("dist_workers_live", "workers the coordinator's sweep has not declared lost")
	m.ShardNs = reg.NewHistogramMetric("dist_shard_ns", "per-shard lease-to-completion latency", latencyNsBounds)
	return m
}

// Registry returns the registry backing the bundle (nil-safe).
func (m *DistMetrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// Snapshot flattens the bundle's registry (nil-safe).
func (m *DistMetrics) Snapshot() Snapshot {
	if m == nil {
		return nil
	}
	return m.reg.Snapshot()
}

// fleetKeys maps each dist_fleet_* gauge to the worker-snapshot key it
// sums. The set is the live-view core of the engine counters — enough
// to spot a hot shard or a stalled worker without scraping N processes.
var fleetKeys = []struct{ gauge, snap string }{
	{"dist_fleet_states_explored", "enum_states_explored_total"},
	{"dist_fleet_forks", "enum_forks_total"},
	{"dist_fleet_behaviors", "enum_behaviors_total"},
	{"dist_fleet_dedup_hits", "enum_dedup_hits_total"},
	{"dist_fleet_spill_runs", "enum_dedup_spill_runs_total"},
	{"dist_fleet_retries", "dist_retries_total"},
}

// FleetMetrics is the coordinator-side aggregation of worker metric
// snapshots piggybacked on heartbeats: each series is the sum over the
// live fleet, re-set on every aggregation pass (gauges, not counters —
// a lost worker's contribution ages out with it). All methods nil-safe.
type FleetMetrics struct {
	reg    *Registry
	gauges []*Gauge
	// Workers tracks how many snapshots fed the last aggregation.
	Workers *Gauge
}

// NewFleetMetrics registers the dist_fleet_* series on reg (a private
// registry when reg is nil).
func NewFleetMetrics(reg *Registry) *FleetMetrics {
	if reg == nil {
		reg = NewRegistry()
	}
	m := &FleetMetrics{reg: reg}
	for _, k := range fleetKeys {
		m.gauges = append(m.gauges, reg.NewGauge(k.gauge, "fleet-wide sum of "+k.snap+" over live workers' heartbeat snapshots"))
	}
	m.Workers = reg.NewGauge("dist_fleet_snapshot_workers", "live workers whose snapshots fed the last aggregation")
	return m
}

// Update recomputes every fleet series from the live workers'
// snapshots. Nil-safe; nil or empty snapshots zero the series.
func (m *FleetMetrics) Update(snaps []Snapshot) {
	if m == nil {
		return
	}
	for i, k := range fleetKeys {
		var sum int64
		for _, s := range snaps {
			sum += s[k.snap]
		}
		m.gauges[i].Set(sum)
	}
	m.Workers.Set(int64(len(snaps)))
}

// Registry returns the registry backing the bundle (nil-safe).
func (m *FleetMetrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}
