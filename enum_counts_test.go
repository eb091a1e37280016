package storeatomicity

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"text/tabwriter"

	"storeatomicity/internal/core"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/program"
)

var update = flag.Bool("update", false, "rewrite "+countsFile+" from this run")

// countsFile is the committed table TestEnumCounts compares against.
const countsFile = "testdata/enum_counts.txt"

// dedupcheckBuild is set by dedupcheck_test.go under -tags dedupcheck,
// whose signature guard and defensive copies raise allocs/op by 15% (E11)
// to 17x (E15) while every count stays the same.
var dedupcheckBuild bool

// suiteEntry is one (experiment, test, model) triple of DESIGN.md's
// experiment index whose cost is dominated by core.Enumerate.
type suiteEntry struct {
	exp, test, model string
	// frontierBytes, when non-zero, replaces the automatic resident
	// frontier budget.
	frontierBytes int64
}

// enumSuite is the one suite list: TestEnumCounts pins its width-1
// counts, BenchmarkEnum times it, and the resolveshare-tagged test gates
// E13/E14's phase split. E13/E14 are the heavy rotation-symmetric
// entries, dominated by converging prefixes and orbit twins, which is
// exactly what the pruning layers remove. E15 is the deep end: a
// frontier that outgrows its resident budget, so the run must demote
// queued states to replay paths and revive them to finish.
var enumSuite = []suiteEntry{
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
	// E15's undemoted frontier peaks near 4 MB; the 1 MiB budget forces
	// real demotion traffic while staying far above any single state.
	{"E15", "SB4W", "Relaxed", 1 << 20},
}

func (s suiteEntry) name() string { return s.exp + "_" + s.test + "_" + s.model }

// setup resolves the entry's test and model and builds its options: the
// command-line tools' defaults (an unbounded seen-set, the automatic
// frontier budget), which are also the options bench/'s workloads start
// from.
func (s suiteEntry) setup(tb testing.TB) (*litmus.Test, litmus.Model, core.Options) {
	tb.Helper()
	tc, ok := litmus.ByName(s.test)
	if s.test == "SB4W" { // not in the registry; see sb4w
		tc, ok = sb4w(), true
	}
	if !ok {
		tb.Fatalf("unknown test %s", s.test)
	}
	m, ok := litmus.ModelByName(s.model)
	if !ok {
		tb.Fatalf("unknown model %s", s.model)
	}
	opts := core.Options{FrontierResidentBytes: -1}
	if s.frontierBytes != 0 {
		opts.FrontierResidentBytes = s.frontierBytes
	}
	opts.Speculative = m.Speculative
	return tc, m, opts
}

// sb4w builds the E15 program: SB3W's rotation-symmetric wide store
// buffering grown to four threads, each storing its own address and
// loading the other three (16 memory operations, three candidate stores
// per load). Deliberately NOT in the litmus registry: Registry() feeds
// the corpus sweeps that also run the reference engine, which has no
// pruning layers, and this program is sized to be tractable only with
// them.
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

// countColumns are the counts TestEnumCounts pins exactly, in table
// order. At width 1 the engine explores one fixed order, so each repeats
// to the unit from run to run and host to host.
var countColumns = []struct {
	name string
	get  func(*core.Result) int64
}{
	{"states", func(r *core.Result) int64 { return int64(r.Stats.StatesExplored) }},
	{"forks", func(r *core.Result) int64 { return int64(r.Stats.Forks) }},
	{"elided", func(r *core.Result) int64 { return int64(r.Stats.ChildrenElided) }},
	{"trial_rollbacks", func(r *core.Result) int64 { return int64(r.Stats.TrialRollbacks) }},
	{"prefix_pruned", func(r *core.Result) int64 { return int64(r.Stats.PrefixPruned) }},
	{"symmetry_pruned", func(r *core.Result) int64 { return int64(r.Stats.SymmetryPruned) }},
	{"behaviors", func(r *core.Result) int64 { return int64(len(r.Executions)) }},
	{"demoted", func(r *core.Result) int64 { return int64(r.Stats.FrontierDemoted) }},
	{"frontier_peak", func(r *core.Result) int64 { return r.Stats.FrontierResidentPeak }},
}

// TestEnumCounts runs every enumSuite entry once at width 1 and compares
// its counts exactly, and its allocs/op within 10%, against countsFile.
// Allocations are nearly but not exactly deterministic, hence the
// tolerance. Run with -update to rewrite the table from this run.
func TestEnumCounts(t *testing.T) {
	var want map[string][]int64
	if !*update {
		var err error
		if want, err = readCounts(countsFile); err != nil {
			t.Fatal(err)
		}
	}
	n := len(countColumns) // a row's allocs/op follows its counts
	got := map[string][]int64{}
	for _, s := range enumSuite {
		tc, m, opts := s.setup(t)
		var res *core.Result
		// AllocsPerRun runs the engine once to warm up, then once
		// measured; res keeps the measured run's result.
		allocs := testing.AllocsPerRun(1, func() {
			var err error
			if res, err = core.Enumerate(context.Background(), tc.Build(), m.Policy, opts); err != nil {
				t.Fatalf("%s: %v", s.name(), err)
			}
		})
		var row []int64
		for _, c := range countColumns {
			row = append(row, c.get(res))
		}
		row = append(row, int64(allocs))
		got[s.name()] = row
		if *update {
			continue
		}
		w, ok := want[s.name()]
		if !ok {
			t.Errorf("%s: no row in %s (run with -update)", s.name(), countsFile)
			continue
		}
		for i, c := range countColumns {
			if row[i] != w[i] {
				t.Errorf("%s: %s is %d, table has %d", s.name(), c.name, row[i], w[i])
			}
		}
		if d := row[n] - w[n]; !dedupcheckBuild && (10*d > w[n] || -10*d > w[n]) {
			t.Errorf("%s: allocs/op is %d, table has %d (more than 10%% apart)", s.name(), row[n], w[n])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: row in %s but not in enumSuite", name, countsFile)
		}
	}
	if *update {
		if err := writeCounts(countsFile, got); err != nil {
			t.Fatal(err)
		}
	}
}

// readCounts parses countsFile: '#' comment lines, a header naming the
// columns, then one row per suite entry.
func readCounts(path string) (map[string][]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	header := strings.Join(countsHeader(), " ")
	rows := map[string][]int64{}
	sawHeader := false
	for i, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0 || strings.HasPrefix(fields[0], "#"):
			continue
		case !sawHeader:
			if strings.Join(fields, " ") != header {
				return nil, fmt.Errorf("%s:%d: header %q, want %q (run with -update)", path, i+1, line, header)
			}
			sawHeader = true
			continue
		case len(fields) != len(countColumns)+2:
			return nil, fmt.Errorf("%s:%d: %d fields, want %d", path, i+1, len(fields), len(countColumns)+2)
		}
		var row []int64
		for _, f := range fields[1:] {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, i+1, err)
			}
			row = append(row, v)
		}
		rows[fields[0]] = row
	}
	return rows, nil
}

// writeCounts writes rows in enumSuite order under an aligned header.
func writeCounts(path string, rows map[string][]int64) error {
	var b bytes.Buffer
	b.WriteString("# Width-1 engine counts of the enumSuite entries, checked by TestEnumCounts.\n")
	b.WriteString("# Regenerate with: go test -run TestEnumCounts -update .\n")
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(countsHeader(), "\t"))
	for _, s := range enumSuite {
		fmt.Fprint(tw, s.name())
		for _, v := range rows[s.name()] {
			fmt.Fprintf(tw, "\t%d", v)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func countsHeader() []string {
	h := []string{"entry"}
	for _, c := range countColumns {
		h = append(h, c.name)
	}
	return append(h, "allocs")
}
