// Command bench is the end-to-end benchmark of the enumeration engine
// (internal/core and internal/graph), the enumeration service
// (internal/serve) and the distributed fleet (internal/dist). It drives
// each layer's public entry points from outside, checks every answer,
// prints every metric by name with its unit, and ends with one JSON
// line: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bash bench/run.sh -workload W -seed N [-seconds S] [-trace 0|1] [-trace-dir DIR]
//	bash bench/run.sh -seed N          # every workload, each in its own process
//
// An untraced run reports the end-to-end metrics. A traced run measures
// half its time untraced and half traced, reports the per-layer metrics,
// and writes DIR/<workload>.trace.json and DIR/<workload>.layers.json.
// See bench/README.md for the workloads, the metrics and how to compare
// two commits.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"storeatomicity/internal/telemetry"
)

// The settings every run pins, recorded in every artifact.
const (
	gomaxprocs = 2
	gogc       = 100
	// setupRuns is how many times a run sets its workload up; setup_s is
	// the median, and the last set-up is the one measured.
	setupRuns = 3
	// runTimeout bounds a whole run, set-up and checks included.
	runTimeout = 170 * time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	// tiny shrinks every input for the smoke test.
	tiny bool
}

// workload is one traffic mix over the system under test.
type workload interface {
	// setup draws the inputs from the seed, starts the system under test
	// and warms it up.
	setup(ctx context.Context) error
	// run measures one phase, starting from op 0.
	run(ctx context.Context, ph *phase)
	// verify runs the untimed checks that do not belong to one op.
	verify(ctx context.Context)
	// goldenOps is the number of ops whose answers the golden digest
	// covers: one pass over every distinct input.
	goldenOps() int
	// layers adds the per-layer metrics of a traced phase.
	layers(ph *phase, v values)
	close() error
}

type workloadDef struct {
	name string
	// tailP is the frozen percentile of latency_ms_tail: tailPercentile
	// of the op count of a run when the benchmark was defined, or the
	// next lower one where that moved more between runs (README.md).
	tailP float64
	make  func(config, *tally) workload
}

var workloads = []workloadDef{
	{"enum-corpus", 99.5, newEnumCorpus},
	{"enum-wide", 75, newEnumWide},
	{"serve-zipf", 99.5, newServeZipf},
	{"fleet-jobs", 99.5, newFleetJobs},
}

func lookup(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report renders the named metrics with their units, in table order.
func (v values) report(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{finite(v[d.name]), d.unit}
	}
	return out
}

// result is one run's artifact.
type result struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	Gomaxprocs int     `json:"gomaxprocs"`
	Gogc       int     `json:"gogc"`

	Metrics   map[string]metricValue `json:"metrics"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	ErrorRate float64                `json:"error_rate"`
	Failures  []string               `json:"failures,omitempty"`
	// KnownDiffs are passed checks showing a documented difference that
	// predates the benchmark (see bench/README.md).
	KnownDiffs []string `json:"known_diffs,omitempty"`

	Ops               int     `json:"ops"`
	TailPercentile    float64 `json:"tail_percentile"`
	TailSamplesBeyond int     `json:"tail_samples_beyond"`
	// LatencyMs is the untraced phase's op latency at every percentile a
	// tail may be reported at.
	LatencyMs  map[string]float64 `json:"latency_ms"`
	SetupRunsS []float64          `json:"setup_runs_s"`
	VerifyS    float64            `json:"verify_s"`
	// Golden is match, mismatch, written, skipped (prefix not reached),
	// or none (not the default seed, or no digest committed).
	Golden string `json:"golden"`
}

func main() {
	var (
		cfg         config
		trace       int
		out         = flag.String("out", ".bench_build", "directory for artifacts, traces and temp files")
		commit      = flag.String("commit", "unknown", "commit recorded in the artifact")
		goldenDir   = flag.String("golden", filepath.Join("bench", "golden"), "directory of the committed golden digests")
		writeGolden = flag.Bool("write-golden", false, "write the golden digest of this run instead of checking it (default seed only)")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs every workload, each in its own process")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed (1 is the default seed with golden digests; 2 is held out for claims)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 measures half the run traced and reports the per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "where a traced run writes its trace and layer files (default OUT/trace)")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.workload == "" {
		os.Exit(runAll())
	}
	if _, ok := lookup(cfg.workload); !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: bad flags (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	if n := runtime.NumCPU(); n < gomaxprocs {
		fmt.Fprintf(os.Stderr, "bench: needs %d CPUs, host has %d\n", gomaxprocs, n)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	debug.SetGCPercent(gogc)

	outDir, err := filepath.Abs(*out)
	if err == nil {
		err = os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	// Spill runs and the service journal go to temp files; keep them in
	// the output directory.
	os.Setenv("TMPDIR", filepath.Join(outDir, "tmp"))
	if cfg.traceDir == "" {
		cfg.traceDir = filepath.Join(outDir, "trace")
	}

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	res, err := runWorkload(ctx, cfg, *goldenDir, *writeGolden)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	res.Commit = *commit
	if err := writeArtifact(filepath.Join(outDir, "results"), res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	printResult(res)
	if res.Failed > 0 {
		os.Exit(1)
	}
}

// runWorkload sets the workload up setupRuns times, measures it, checks
// its answers and returns the run's result.
func runWorkload(ctx context.Context, cfg config, goldenDir string, writeGolden bool) (*result, error) {
	def, ok := lookup(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	t := &tally{}
	res := &result{
		Workload: def.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		GoVersion: runtime.Version(), CPU: cpuModel(), NumCPU: runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0), Gogc: gcPercent(), TailPercentile: def.tailP,
	}
	var w workload
	for r := 0; r < setupRuns; r++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		w = def.make(cfg, t)
		start := time.Now()
		err := w.setup(ctx)
		res.SetupRunsS = append(res.SetupRunsS, time.Since(start).Seconds())
		if err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	defer w.close()

	target := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		target /= 2
	}
	first := newPhase(target, t)
	if !cfg.tiny {
		first.golden = newTranscript(w.goldenOps())
	}
	w.run(ctx, first)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Ops = first.ops
	e2e := first.endToEnd(def.tailP)
	e2e["setup_s"] = median(append([]float64(nil), res.SetupRunsS...))
	res.TailSamplesBeyond = beyond(first.ops, def.tailP)
	res.LatencyMs = first.ladder()

	var second *phase
	if cfg.trace {
		second = newPhase(target, t)
		second.tr = newTracer()
		second.enum = telemetry.NewEnumMetrics(nil)
		w.run(ctx, second)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	w.verify(ctx)
	res.VerifyS = time.Since(start).Seconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Golden = checkGolden(t, first.golden, goldenDir, def.name, cfg.seed, writeGolden)

	if !cfg.trace {
		res.Metrics = e2e.report(endToEnd)
	} else {
		a := second.tr.attribute()
		t.check(a.balanced(), "%s: layer times %v + unattributed %v do not sum to wall clock %v",
			def.name, a.LayersS, a.UnattributedS, a.WallS)
		v := layerValues(w, second, a, e2e["throughput_ops_s"])
		v["bench.verify_s"] = res.VerifyS
		if err := writeTrace(cfg.traceDir, def.name, cfg.seed, second.tr, a, v); err != nil {
			return nil, err
		}
		res.Metrics = v.report(perLayer)
	}
	res.Attempted, res.Failed, res.Failures, res.KnownDiffs = t.attempted, t.failed, t.notes, t.knownDiffs
	if res.Attempted > 0 {
		res.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	}
	return res, nil
}

// layerValues gathers the per-layer metrics of the traced phase ph: the
// workload's own, each layer's share of the wall clock, and the tracing
// overhead against the untraced phase's throughput.
func layerValues(w workload, ph *phase, a attribution, untracedThroughput float64) values {
	v := values{}
	w.layers(ph, v)
	for _, layer := range []string{"core", "serve", "dist", "bench"} {
		v[layer+".self_share"] = a.share(layer)
	}
	v["bench.idle_share"] = a.share("idle")
	v["bench.unattributed_share"] = a.share("unattributed")
	if traced := ph.throughput(); traced > 0 {
		v["bench.trace_overhead"] = untracedThroughput/traced - 1
	}
	return v
}

// checkGolden compares the run's digest of its first ops with the
// committed one at the default seed, or writes it.
func checkGolden(t *tally, tr *transcript, dir, name string, seed int64, write bool) string {
	if tr == nil || seed != 1 {
		return "none"
	}
	got := tr.digest()
	if got == "" {
		return "skipped"
	}
	path := filepath.Join(dir, name+".digest")
	if write {
		if !t.check(os.WriteFile(path, []byte(got+"\n"), 0o644) == nil, "write %s", path) {
			return "none"
		}
		return "written"
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return "none"
	}
	want := strings.TrimSpace(string(data))
	if !t.check(err == nil && got == want, "%s: golden digest %s, committed %s (%v)", name, got, want, err) {
		return "mismatch"
	}
	return "match"
}

// printResult prints every metric by name with its unit, then the one
// JSON line the run ends with.
func printResult(res *result) {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%s %-30s %16.6f %s\n", res.Workload, d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("%s %-30s %16.6f fraction (%d of %d)\n", res.Workload, "error_rate", res.ErrorRate, res.Failed, res.Attempted)
	fmt.Printf("%s tail = p%g over %d ops (%d beyond); setup runs %v s; verify %.3f s; golden %s; known differences %d\n",
		res.Workload, res.TailPercentile, res.Ops, res.TailSamplesBeyond, res.SetupRunsS, res.VerifyS, res.Golden, len(res.KnownDiffs))
	// Plain numbers made finite by report: encoding cannot fail.
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(line))
}

func writeArtifact(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d", res.Workload, res.Seed)
	if res.Traced {
		name += "-trace"
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644)
}

// runAll runs every workload in its own process with this process's
// flags and returns a non-zero exit code if any run failed.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, d := range workloads {
		cmd := exec.Command(self, append(os.Args[1:], "-workload", d.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", d.name, err)
			code = 1
		}
	}
	return code
}

// cpuModel names the host CPU for the artifact.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gcPercent() int {
	p := debug.SetGCPercent(gogc)
	debug.SetGCPercent(p)
	return p
}
