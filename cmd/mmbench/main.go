// Command mmbench runs the enumeration benchmark suite (the E1–E14
// experiments' hot path plus the parallel worker sweep) through
// testing.Benchmark and emits a machine-readable snapshot. CI and the
// DESIGN.md before/after tables are fed from this file, so regressions
// show up as a diff, not as an anecdote.
//
// Usage:
//
//	mmbench [-out BENCH_enum.json] [-workers 1,2,4,8] [-timeout 10m]
//	mmbench -baseline BENCH_enum.json [-threshold 10] [-ns-threshold -1]
//
// The second form is the regression guard: it runs the suite, compares
// every entry against the committed baseline snapshot, prints a delta
// table, and exits non-zero when states explored regress by more than
// -threshold percent or allocs/op by more than -alloc-threshold percent
// (or ns/op by more than -ns-threshold percent; the default -1 makes
// wall-clock report-only, since CI hosts differ from the baseline host
// while states-explored and allocation counts are deterministic).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"testing"

	"storeatomicity/internal/cli"
	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/program"
	"storeatomicity/internal/telemetry"
)

// result is one benchmark row of the snapshot. NumCPU and Workers are
// recorded per entry so rows from different hosts (or sweeps) can be
// compared without consulting the document header. Metrics comes from a
// single instrumented run outside the timed loop — the benchmark itself
// always runs with telemetry disabled so the numbers stay honest.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Behaviors   int     `json:"behaviors,omitempty"`
	// StatesExplored is deterministic for a given engine + pruning
	// configuration, so the baseline guard compares it across hosts.
	StatesExplored int `json:"states_explored,omitempty"`
	// Forks counts materialized-and-queued children — the number the
	// trial-apply engine exists to shrink. Deterministic, so it gates
	// against the baseline on the heavy entries.
	Forks int `json:"forks,omitempty"`
	// FrontierPeakBytes is the resident-frontier high-water mark and
	// FrontierDemoted the states demoted to replay paths; deterministic
	// for the sequential entries, so E13–E15 gate the peak against the
	// baseline (a leak that re-materializes the whole queue shows here
	// before it shows in allocs/op).
	FrontierPeakBytes int64              `json:"frontier_peak_bytes,omitempty"`
	FrontierDemoted   int                `json:"frontier_demoted,omitempty"`
	NumCPU            int                `json:"num_cpu"`
	Workers           int                `json:"workers"`
	Metrics           telemetry.Snapshot `json:"metrics,omitempty"`
	// StateP50Ns/P95/P99 are per-state latency quantiles estimated from
	// the instrumented run's enum_state_ns histogram — the tail, which
	// ns/op (a mean) hides. Zero when phase metrics are absent
	// (notelemetry builds or pre-quantile baselines).
	StateP50Ns int64 `json:"state_p50_ns,omitempty"`
	StateP95Ns int64 `json:"state_p95_ns,omitempty"`
	StateP99Ns int64 `json:"state_p99_ns,omitempty"`
}

// fillQuantiles copies the state-latency quantiles out of the row's
// metric snapshot into the typed columns.
func (r *result) fillQuantiles() {
	r.StateP50Ns = r.Metrics["enum_state_ns_p50"]
	r.StateP95Ns = r.Metrics["enum_state_ns_p95"]
	r.StateP99Ns = r.Metrics["enum_state_ns_p99"]
}

// statesExplored reads the row's deterministic work counter, falling
// back to the telemetry snapshot for baselines written before the field
// existed. Zero means unavailable.
func (r *result) statesExplored() int64 {
	if r.StatesExplored > 0 {
		return int64(r.StatesExplored)
	}
	return r.Metrics["enum_states_explored_total"]
}

// snapshot is the whole BENCH_enum.json document. Gogc and Gomaxprocs
// record the runtime knobs the numbers were taken under, so two
// snapshots are only ever compared like for like.
type snapshot struct {
	GoVersion        string `json:"go_version"`
	NumCPU           int    `json:"num_cpu"`
	Gogc             int    `json:"gogc"`
	Gomaxprocs       int    `json:"gomaxprocs,omitempty"`
	Prune            string `json:"prune,omitempty"`
	Cow              string `json:"cow,omitempty"`
	DedupMem         string `json:"dedup_mem,omitempty"`
	FrontierResident string `json:"frontier_resident,omitempty"`
	Note             string `json:"note,omitempty"`
	// SweepTruncated records that the parallel sweep skipped widths
	// beyond GOMAXPROCS — those entries would measure scheduler
	// overhead, not speedup, so they are omitted rather than mislabeled.
	SweepTruncated bool     `json:"sweep_truncated,omitempty"`
	Enum           []result `json:"enum"`
	Parallel       []result `json:"parallel"`
}

// enumSuite mirrors BenchmarkEnum in bench_test.go: the (experiment,
// test, model) triples whose cost is dominated by core.Enumerate. E13
// and E14 are the heavy rotation-symmetric entries the pruning layers
// exist for; E15 is the deep end — a frontier bigger than its resident
// budget, so the run must demote queued states to replay paths and
// revive them to finish (frontierBytes pins the entry's budget
// regardless of -frontier-resident; zero defers to the flag).
// tel is package-level so fatalf can flush the trace and metrics server
// before exiting.
var tel cli.Telemetry

var enumSuite = []struct {
	exp, test, model string
	frontierBytes    int64
}{
	{"E2", "Figure3", "Relaxed", 0},
	{"E3", "Figure4", "Relaxed", 0},
	{"E4", "Figure5", "Relaxed", 0},
	{"E5", "Figure7", "Relaxed", 0},
	{"E6", "Figure8", "Relaxed+spec", 0},
	{"E7", "Figure10", "TSO", 0},
	{"E8", "Figure10", "Relaxed", 0},
	{"E9", "IRIW", "Relaxed", 0},
	{"E10", "MP", "Relaxed", 0},
	{"E11", "SB", "TSO", 0},
	{"E12", "LB", "Relaxed", 0},
	{"E13", "SB3", "Relaxed", 0},
	{"E14", "SB3W", "Relaxed", 0},
	// E15's undemoted frontier peaks near 4 MB; the 1 MB budget forces
	// real demotion traffic while staying far above any single state.
	{"E15", "SB4W", "Relaxed", 1 << 20},
}

// sb4w builds the E15 program: SB3W's rotation-symmetric wide store
// buffering grown to four threads, each storing its own address and
// loading the other three (16 memory operations, three candidate stores
// per load). Deliberately NOT in the litmus registry: Registry() feeds
// the corpus sweeps that enumerate every unpruned configuration, and
// this program is sized to be tractable only with the pruning layers on.
func sb4w() *litmus.Test {
	addrs := []program.Addr{program.X, program.Y, program.Z, program.W}
	build := func() *program.Program {
		b := program.NewBuilder()
		reg := 1
		for i := range addrs {
			t := b.Thread(fmt.Sprintf("T%d", i))
			t.StoreL(fmt.Sprintf("S%d", i), addrs[i], 1)
			for k := 1; k < len(addrs); k++ {
				t.LoadL(fmt.Sprintf("L%d_%d", i, k), program.Reg(reg), addrs[(i+k)%len(addrs)])
				reg++
			}
		}
		return b.Build()
	}
	return &litmus.Test{
		Name:  "SB4W",
		Doc:   "Four-thread wide cyclic store buffering: 4 stores, 12 loads; rotation-symmetric.",
		Build: build,
	}
}

// suiteTest resolves a suite entry's test: the registry, plus the
// bench-only programs too heavy for the corpus sweeps.
func suiteTest(name string) (*litmus.Test, bool) {
	if name == "SB4W" {
		return sb4w(), true
	}
	return litmus.ByName(name)
}

func main() {
	var (
		out       = flag.String("out", "BENCH_enum.json", "output file (\"-\" for stdout)")
		workers   = flag.String("workers", "1,2,4,8", "comma-separated worker counts for the parallel sweep")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget; an interrupted suite fails rather than emitting a skewed snapshot")
		gogc      = flag.Int("gogc", -1, "debug.SetGCPercent during the timed loops: -1 (the default) turns the background collector off while timing — GC pacing is the biggest run-to-run variance source, but the heap then grows for the whole suite, so prefer 0 (keep the process setting) on memory-tight hosts or when comparing against a GC-on snapshot")
		maxprocs  = flag.Int("maxprocs", 0, "GOMAXPROCS for the whole run; 0 keeps the runtime default")
		baseline  = flag.String("baseline", "", "compare against this snapshot and exit non-zero on regressions")
		threshold = flag.Float64("threshold", 10, "max allowed states-explored regression in percent (with -baseline)")
		nsThresh  = flag.Float64("ns-threshold", -1, "max allowed ns/op regression in percent; negative = report-only (with -baseline)")
		allocTh   = flag.Float64("alloc-threshold", 10, "max allowed allocs/op regression in percent; negative = report-only (with -baseline)")
		resolveTh = flag.Float64("resolve-threshold", -1, "max allowed regression in the resolve-phase time share (enum_phase_resolve_ns_total / ns_per_op) of the heavy E13/E14 entries, in percent; negative = report-only (with -baseline)")
		forksTh   = flag.Float64("forks-threshold", 10, "max allowed forks/op regression on the heavy E13–E15 entries, in percent; negative = report-only (with -baseline)")
		frontTh   = flag.Float64("frontier-threshold", 10, "max allowed resident-frontier-peak regression on the heavy E13–E15 entries, in percent; negative = report-only (with -baseline)")
	)
	// E15 pins its own 1m -frontier-resident budget regardless.
	engine := cli.RegisterEngineFlags("", true)
	tel.RegisterFlags()
	flag.Parse()
	// The guard form must never clobber the baseline it is judging
	// against: suppress the snapshot write unless -out was explicit.
	outExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			outExplicit = true
		}
	})
	if *baseline != "" && !outExplicit {
		*out = ""
	}
	ctx, stop := cli.Context(*timeout)
	defer stop()
	if err := tel.Init("mmbench"); err != nil {
		fatalf("%v", err)
	}
	defer tel.Close()

	var pruneOpts core.Options
	if err := engine.Apply(&pruneOpts); err != nil {
		fatalf("%v", err)
	}

	// Validate the sweep before spending seconds on benchmarks.
	var sweep []int
	maxWorkers := 1
	for _, ws := range strings.Split(*workers, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(ws))
		if err != nil || w < 1 {
			fatalf("bad -workers element %q", ws)
		}
		sweep = append(sweep, w)
		if w > maxWorkers {
			maxWorkers = w
		}
	}

	if *maxprocs > 0 {
		runtime.GOMAXPROCS(*maxprocs)
	}
	snap := snapshot{
		GoVersion:        runtime.Version(),
		NumCPU:           runtime.NumCPU(),
		Gogc:             *gogc,
		Gomaxprocs:       runtime.GOMAXPROCS(0),
		Prune:            engine.Prune,
		Cow:              engine.COW,
		DedupMem:         engine.DedupMem,
		FrontierResident: engine.FrontierResident,
	}
	// The cap is about what the scheduler can actually use, not what the
	// hardware reports: sweep entries wider than GOMAXPROCS would time
	// scheduler overhead, not speedup, so they are skipped and the
	// snapshot says so instead of carrying mislabeled rows.
	if procs := runtime.GOMAXPROCS(0); procs < maxWorkers {
		snap.SweepTruncated = true
		snap.Note = fmt.Sprintf(
			"GOMAXPROCS=%d < max sweep width %d; the wider parallel entries are skipped",
			procs, maxWorkers)
	}

	// Run the timed loops under the requested GC regime (off by default:
	// the explicit runtime.GC() between entries still bounds heap growth)
	// and restore the collector before writing any output.
	if *gogc != 0 {
		defer debug.SetGCPercent(debug.SetGCPercent(*gogc))
	}

	for _, s := range enumSuite {
		if ctx.Err() != nil {
			fatalf("interrupted: %v (benchmarks must run to completion for a valid snapshot)", ctx.Err())
		}
		tc, ok := suiteTest(s.test)
		if !ok {
			fatalf("unknown test %s", s.test)
		}
		m, ok := litmus.ModelByName(s.model)
		if !ok {
			fatalf("unknown model %s", s.model)
		}
		entryOpts := pruneOpts
		if s.frontierBytes != 0 {
			entryOpts.FrontierResidentBytes = s.frontierBytes
		}
		var behaviors, states, forks, demoted int
		var frontierPeak int64
		// Reset heap state between entries: without this, allocation
		// pressure from earlier entries skews the GC pacing of later
		// ones, and the last rows of the table drift 10-20% run to run.
		runtime.GC()
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := entryOpts
				opts.Speculative = m.Speculative
				res, err := core.Enumerate(ctx, tc.Build(), m.Policy, opts)
				if err != nil {
					b.Fatal(err)
				}
				behaviors = len(res.Executions)
				states = res.Stats.StatesExplored
				forks = res.Stats.Forks
				demoted = res.Stats.FrontierDemoted
				frontierPeak = res.Stats.FrontierResidentPeak
			}
		})
		snap.Enum = append(snap.Enum, result{
			Name:              s.exp + "_" + s.test + "_" + s.model,
			Iterations:        r.N,
			NsPerOp:           float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:       r.AllocsPerOp(),
			BytesPerOp:        r.AllocedBytesPerOp(),
			Behaviors:         behaviors,
			StatesExplored:    states,
			Forks:             forks,
			FrontierPeakBytes: frontierPeak,
			FrontierDemoted:   demoted,
			NumCPU:            runtime.NumCPU(),
			Workers:           1,
			Metrics:           measuredRun(ctx, tc, s.model, 1, entryOpts),
		})
		row := &snap.Enum[len(snap.Enum)-1]
		row.fillQuantiles()
		fmt.Fprintf(os.Stderr, "%-24s %10.0f ns/op %8d allocs/op %8d states  state p95 %s\n",
			row.Name, row.NsPerOp, r.AllocsPerOp(), states, nsCell(row.StateP95Ns))
	}

	tc, _ := litmus.ByName("Figure10")
	m, _ := litmus.ModelByName("Relaxed")
	for _, w := range sweep {
		if w > runtime.GOMAXPROCS(0) {
			fmt.Fprintf(os.Stderr, "Figure10_Relaxed_w%-4d   skipped (width %d > GOMAXPROCS %d)\n",
				w, w, runtime.GOMAXPROCS(0))
			continue
		}
		var states, forks int
		runtime.GC()
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.EnumerateParallel(ctx, tc.Build(), m.Policy, pruneOpts, w)
				if err != nil {
					b.Fatal(err)
				}
				states = res.Stats.StatesExplored
				forks = res.Stats.Forks
			}
		})
		// The frontier peak is omitted for the parallel rows: it sums
		// per-worker high-water marks, which depends on the steal
		// schedule and would make the gate flaky.
		snap.Parallel = append(snap.Parallel, result{
			Name:           fmt.Sprintf("Figure10_Relaxed_w%d", w),
			Iterations:     r.N,
			NsPerOp:        float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:    r.AllocsPerOp(),
			BytesPerOp:     r.AllocedBytesPerOp(),
			StatesExplored: states,
			Forks:          forks,
			NumCPU:         runtime.NumCPU(),
			Workers:        w,
			Metrics:        measuredRun(ctx, tc, "Relaxed", w, pruneOpts),
		})
		row := &snap.Parallel[len(snap.Parallel)-1]
		row.fillQuantiles()
		fmt.Fprintf(os.Stderr, "%-24s %10.0f ns/op %8d allocs/op %8d states  state p95 %s\n",
			row.Name, row.NsPerOp, r.AllocsPerOp(), states, nsCell(row.StateP95Ns))
	}

	if *out != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		data = append(data, '\n')
		if *out == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatalf("%v", err)
		}
	}

	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fatalf("%v", err)
		}
		var base snapshot
		if err := json.Unmarshal(data, &base); err != nil {
			fatalf("parse baseline %s: %v", *baseline, err)
		}
		if failed := compareToBaseline(os.Stdout, &base, &snap, *threshold, *nsThresh, *allocTh, *resolveTh, *forksTh, *frontTh); failed {
			tel.Close()
			os.Exit(1)
		}
	}
}

// compareToBaseline prints the per-entry delta table and reports whether
// any enabled threshold was exceeded. States-explored deltas are exact
// (the engine is deterministic) and allocs/op is nearly so (the
// allocation pattern barely depends on the host), so both gate by
// default; ns/op deltas are noisy and only gate when nsThresh is
// non-negative.
func compareToBaseline(w *os.File, base, cur *snapshot, stThresh, nsThresh, allocThresh, resolveThresh, forksThresh, frontierThresh float64) bool {
	baseRows := map[string]*result{}
	for i := range base.Enum {
		baseRows[base.Enum[i].Name] = &base.Enum[i]
	}
	for i := range base.Parallel {
		baseRows[base.Parallel[i].Name] = &base.Parallel[i]
	}
	if base.Prune != cur.Prune {
		fmt.Fprintf(w, "note: baseline prune=%q, current prune=%q — deltas mix configurations\n",
			base.Prune, cur.Prune)
	}
	if base.Cow != cur.Cow {
		fmt.Fprintf(w, "note: baseline cow=%q, current cow=%q — deltas mix fork strategies\n",
			base.Cow, cur.Cow)
	}
	fmt.Fprintf(w, "%-26s %14s %9s %12s %10s %16s %9s\n",
		"entry", "ns/op", "Δns%", "allocs/op", "Δallocs%", "states", "Δstates%")
	failed := false
	rows := append(append([]result(nil), cur.Enum...), cur.Parallel...)
	for i := range rows {
		r := &rows[i]
		b, ok := baseRows[r.Name]
		if !ok {
			fmt.Fprintf(w, "%-26s %14.0f %9s %12d %10s %16d %9s\n",
				r.Name, r.NsPerOp, "new", r.AllocsPerOp, "new", r.statesExplored(), "new")
			continue
		}
		nsDelta := pctDelta(float64(b.NsPerOp), float64(r.NsPerOp))
		stBase, stCur := b.statesExplored(), r.statesExplored()
		stMark, nsMark, alMark := "", "", ""
		var stCell string
		if stBase == 0 || stCur == 0 {
			stCell = "n/a"
		} else {
			stDelta := pctDelta(float64(stBase), float64(stCur))
			if stDelta > stThresh {
				failed = true
				stMark = " REGRESSION"
			}
			stCell = fmt.Sprintf("%+8.1f%%%s", stDelta, stMark)
		}
		// Baselines written before the alloc columns carry zeros; skip
		// the gate rather than divide by them.
		var alCell string
		if b.AllocsPerOp == 0 {
			alCell = "n/a"
		} else {
			alDelta := pctDelta(float64(b.AllocsPerOp), float64(r.AllocsPerOp))
			if allocThresh >= 0 && alDelta > allocThresh {
				failed = true
				alMark = " REGRESSION"
			}
			alCell = fmt.Sprintf("%+8.1f%%%s", alDelta, alMark)
		}
		if nsThresh >= 0 && nsDelta > nsThresh {
			failed = true
			nsMark = " REGRESSION"
		}
		fmt.Fprintf(w, "%-26s %14.0f %+8.1f%%%s %12d %10s %16d %s\n",
			r.Name, r.NsPerOp, nsDelta, nsMark, r.AllocsPerOp, alCell, stCur, stCell)
	}
	// Resolve-phase share of the two heavy rotation-symmetric entries —
	// the fraction of each operation spent in Load Resolution forking.
	// The share is dimensionless, so it compares cleanly across hosts of
	// different speeds, unlike raw ns/op.
	for _, r := range rows {
		if !strings.HasPrefix(r.Name, "E13_") && !strings.HasPrefix(r.Name, "E14_") {
			continue
		}
		b, ok := baseRows[r.Name]
		if !ok {
			continue
		}
		baseShare := resolveShare(b)
		curShare := resolveShare(&r)
		if baseShare == 0 || curShare == 0 {
			fmt.Fprintf(w, "%-26s resolve share n/a (no phase metrics in one snapshot)\n", r.Name)
			continue
		}
		delta := pctDelta(baseShare, curShare)
		mark := ""
		if resolveThresh >= 0 && delta > resolveThresh {
			failed = true
			mark = " REGRESSION"
		}
		fmt.Fprintf(w, "%-26s resolve share %5.1f%% -> %5.1f%% (%+.1f%%)%s\n",
			r.Name, baseShare*100, curShare*100, delta, mark)
	}
	// Fork-elision gate on the heavy entries: forks/op and the resident-
	// frontier peak are deterministic at width 1, so a change
	// that quietly re-materializes pruned children or re-inflates the
	// queue fails here even when ns/op hides it in host noise.
	for _, r := range rows {
		if !strings.HasPrefix(r.Name, "E13_") && !strings.HasPrefix(r.Name, "E14_") && !strings.HasPrefix(r.Name, "E15_") {
			continue
		}
		b, ok := baseRows[r.Name]
		if !ok {
			continue
		}
		if b.Forks > 0 && r.Forks > 0 {
			delta := pctDelta(float64(b.Forks), float64(r.Forks))
			mark := ""
			if forksThresh >= 0 && delta > forksThresh {
				failed = true
				mark = " REGRESSION"
			}
			fmt.Fprintf(w, "%-26s forks/op %d -> %d (%+.1f%%)%s\n", r.Name, b.Forks, r.Forks, delta, mark)
		}
		if b.FrontierPeakBytes > 0 && r.FrontierPeakBytes > 0 {
			delta := pctDelta(float64(b.FrontierPeakBytes), float64(r.FrontierPeakBytes))
			mark := ""
			if frontierThresh >= 0 && delta > frontierThresh {
				failed = true
				mark = " REGRESSION"
			}
			fmt.Fprintf(w, "%-26s frontier peak %d -> %d bytes (%+.1f%%, %d demoted)%s\n",
				r.Name, b.FrontierPeakBytes, r.FrontierPeakBytes, delta, r.FrontierDemoted, mark)
		}
	}
	if failed {
		fmt.Fprintf(w, "mmbench: regression past threshold (states %+.0f%%, allocs %+.0f%%, ns/op %+.0f%%, resolve share %+.0f%%, forks %+.0f%%, frontier peak %+.0f%%)\n",
			stThresh, allocThresh, nsThresh, resolveThresh, forksThresh, frontierThresh)
	}
	return failed
}

// resolveShare is the fraction of an entry's time spent in the Load
// Resolution phase. Both numerator and denominator come from the same
// instrumented run — resolve over the sum of the three phase timers —
// so the ratio is self-consistent: dividing the instrumented resolve
// time by the *uninstrumented* timed-loop ns/op instead was observed to
// swing the recorded share 3x between runs (the two clocks see
// different GC and scheduling), which no gate threshold survives. Falls
// back to resolve/ns_per_op for baselines that predate the execute and
// generate counters, and to zero when phase metrics are absent
// entirely (notelemetry builds).
func resolveShare(r *result) float64 {
	res := float64(r.Metrics["enum_phase_resolve_ns_total"])
	phases := res +
		float64(r.Metrics["enum_phase_generate_ns_total"]) +
		float64(r.Metrics["enum_phase_execute_ns_total"])
	if phases > 0 {
		return res / phases
	}
	if r.NsPerOp <= 0 {
		return 0
	}
	return res / r.NsPerOp
}

// nsCell formats a nanosecond quantile for the progress table ("n/a"
// when metrics were unavailable).
func nsCell(ns int64) string {
	if ns <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%dns", ns)
}

func pctDelta(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

// measuredRun repeats one suite entry with a fresh metrics registry per
// attempt and returns the snapshot whose resolve-phase time is the
// median of three — the event counters are deterministic and identical
// across attempts, but the phase-time counters jitter enough on a busy
// host that a single draw can swing the recorded resolve share by half.
// Nil (omitted from the JSON) when the binary was built with the
// notelemetry tag or the run fails — the benchmark numbers above it are
// still valid either way.
func measuredRun(ctx context.Context, tc *litmus.Test, model string, workers int, pruneOpts core.Options) telemetry.Snapshot {
	m, _ := litmus.ModelByName(model)
	var snaps []telemetry.Snapshot
	for i := 0; i < 3; i++ {
		met := telemetry.NewEnumMetrics(nil)
		if met == nil {
			return nil
		}
		opts := pruneOpts
		opts.Speculative = m.Speculative
		opts.Metrics = met
		if _, err := core.EnumerateParallel(ctx, tc.Build(), m.Policy, opts, workers); err != nil {
			return nil
		}
		snaps = append(snaps, met.Snapshot())
	}
	sort.Slice(snaps, func(a, b int) bool {
		return snaps[a]["enum_phase_resolve_ns_total"] < snaps[b]["enum_phase_resolve_ns_total"]
	})
	return snaps[1]
}

func fatalf(format string, args ...any) {
	tel.Close()
	fmt.Fprintf(os.Stderr, "mmbench: "+format+"\n", args...)
	os.Exit(1)
}
