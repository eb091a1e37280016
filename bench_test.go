package storeatomicity

// The benchmark harness regenerates every experiment in DESIGN.md's
// per-experiment index (E1–E12) plus the design-choice ablations. Run:
//
//	go test -bench=. -benchmem
//
// Reported custom metrics:
//
//	behaviors/op        distinct executions enumerated
//	serializations/op   total valid interleavings across those executions
//	compression         serializations per execution graph (E9)
//	states/op           enumeration states explored (dedup ablation)

import (
	"context"

	"fmt"
	"math/rand"
	"testing"

	"storeatomicity/internal/core"
	"storeatomicity/internal/discipline"
	"storeatomicity/internal/graph"
	"storeatomicity/internal/litmus"
	"storeatomicity/internal/machine"
	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
	"storeatomicity/internal/randprog"
	"storeatomicity/internal/serial"
	"storeatomicity/internal/telemetry"
	"storeatomicity/internal/txn"
	"storeatomicity/internal/verify"
)

// enumBench enumerates one corpus test under one model per iteration.
func enumBench(b *testing.B, test, model string, opts core.Options) {
	tc, ok := litmus.ByName(test)
	if !ok {
		b.Fatalf("unknown test %s", test)
	}
	m, ok := litmus.ModelByName(model)
	if !ok {
		b.Fatalf("unknown model %s", model)
	}
	opts.Speculative = m.Speculative
	timeEnum(b, tc, m, opts)
}

// timeEnum enumerates tc under m with opts once per iteration.
func timeEnum(b *testing.B, tc *litmus.Test, m litmus.Model, opts core.Options) {
	var behaviors int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Enumerate(context.Background(), tc.Build(), m.Policy, opts)
		if err != nil {
			b.Fatal(err)
		}
		behaviors = len(res.Executions)
	}
	b.ReportMetric(float64(behaviors), "behaviors/op")
}

// --- E1: Figure 1, the reordering-axiom table ---

func BenchmarkFigure1ReorderTable(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		for _, t := range []*order.Table{order.Relaxed(), order.SC(), order.TSO(), order.NaiveTSO(), order.PSO()} {
			n += len(t.String())
		}
	}
	_ = n
}

// --- E2–E5: the paper's Store Atomicity figures under the relaxed model ---

func BenchmarkFigure3(b *testing.B) { enumBench(b, "Figure3", "Relaxed", core.Options{}) }
func BenchmarkFigure4(b *testing.B) { enumBench(b, "Figure4", "Relaxed", core.Options{}) }
func BenchmarkFigure5(b *testing.B) { enumBench(b, "Figure5", "Relaxed", core.Options{}) }
func BenchmarkFigure7(b *testing.B) { enumBench(b, "Figure7", "Relaxed", core.Options{}) }

// --- E6: Figures 8/9, address-aliasing speculation ---

func BenchmarkFigure8NonSpec(b *testing.B) { enumBench(b, "Figure8", "Relaxed", core.Options{}) }
func BenchmarkFigure8Spec(b *testing.B)    { enumBench(b, "Figure8", "Relaxed+spec", core.Options{}) }

// --- E7: Figures 10/11, TSO and the bypass ---

func BenchmarkFigure10TSO(b *testing.B)      { enumBench(b, "Figure10", "TSO", core.Options{}) }
func BenchmarkFigure10NaiveTSO(b *testing.B) { enumBench(b, "Figure10", "NaiveTSO", core.Options{}) }
func BenchmarkFigure10Relaxed(b *testing.B)  { enumBench(b, "Figure10", "Relaxed", core.Options{}) }

// --- E8: serializability witnesses for every behavior ---

func BenchmarkSerializationWitness(b *testing.B) {
	tc, _ := litmus.ByName("Figure5")
	m, _ := litmus.ModelByName("Relaxed")
	res, err := litmus.Run(tc, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range res.Executions {
			if _, err := serial.Witness(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- E9: graph-vs-interleaving compression ---

func BenchmarkCompressionRatio(b *testing.B) {
	for _, name := range []string{"SB", "MP", "Figure3", "Figure5"} {
		b.Run(name, func(b *testing.B) {
			tc, _ := litmus.ByName(name)
			m, _ := litmus.ModelByName("Relaxed")
			var execs int
			var serializations uint64
			for i := 0; i < b.N; i++ {
				res, err := litmus.Run(tc, m)
				if err != nil {
					b.Fatal(err)
				}
				execs = len(res.Executions)
				serializations = 0
				for _, e := range res.Executions {
					serializations += serial.Count(e, 0)
				}
			}
			b.ReportMetric(float64(execs), "behaviors/op")
			b.ReportMetric(float64(serializations), "serializations/op")
			b.ReportMetric(float64(serializations)/float64(execs), "compression")
		})
	}
}

// --- E10: operational machine versus abstract model ---

func BenchmarkMachineVsModel(b *testing.B) {
	tc, _ := litmus.ByName("MP")
	m, _ := litmus.ModelByName("Relaxed")
	res, err := litmus.Run(tc, m)
	if err != nil {
		b.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, e := range res.Executions {
		allowed[e.SourceKey()] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for seed := int64(0); seed < 50; seed++ {
			tr, err := machine.Run(tc.Build(), machine.Config{Policy: m.Policy, Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			if !allowed[tr.SourceKey()] {
				b.Fatalf("machine escaped the model: %s", tr.SourceKey())
			}
		}
	}
}

// --- E11: post-hoc checker, complete rules vs the TSOtool subset ---

func benchChecker(b *testing.B, rules verify.Rules) {
	tc, _ := litmus.ByName("Figure10")
	m, _ := litmus.ModelByName("TSO")
	res, err := litmus.Run(tc, m)
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]*verify.Record, len(res.Executions))
	for i, e := range res.Executions {
		recs[i] = verify.RecordFromExecution(e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range recs {
			if _, err := verify.Check(r, m.Policy, rules); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCheckerRulesAB(b *testing.B)  { benchChecker(b, verify.RulesAB) }
func BenchmarkCheckerRulesABC(b *testing.B) { benchChecker(b, verify.RulesABC) }

// --- E12: the full corpus per model ---

func BenchmarkSuite(b *testing.B) {
	for _, m := range litmus.Models() {
		b.Run(m.Name, func(b *testing.B) {
			var behaviors int
			for i := 0; i < b.N; i++ {
				behaviors = 0
				for _, tc := range litmus.Registry() {
					res, err := litmus.Run(tc, m)
					if err != nil {
						b.Fatal(err)
					}
					behaviors += len(res.Executions)
				}
			}
			b.ReportMetric(float64(behaviors), "behaviors/op")
		})
	}
}

// --- Ablation: incremental transitive closure vs recomputation ---

func randomDAGEdges(n, e int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	var out [][2]int
	for len(out) < e {
		a, c := rng.Intn(n), rng.Intn(n)
		if a == c {
			continue
		}
		if a > c {
			a, c = c, a
		}
		out = append(out, [2]int{a, c})
	}
	return out
}

func BenchmarkClosureIncremental(b *testing.B) {
	const n, e = 48, 120
	edges := randomDAGEdges(n, e, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.New(n, n)
		for _, ed := range edges {
			if err := g.AddEdge(ed[0], ed[1], graph.EdgeLocal); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkClosureRecompute(b *testing.B) {
	const n, e = 48, 120
	edges := randomDAGEdges(n, e, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.New(n, n)
		for _, ed := range edges {
			if err := g.AddEdge(ed[0], ed[1], graph.EdgeLocal); err != nil {
				b.Fatal(err)
			}
			g.RecomputeClosure()
		}
	}
}

// --- Ablation: Load–Store-graph dedup on/off (Section 4.1) ---

func BenchmarkDedupOn(b *testing.B) {
	benchDedup(b, core.Options{})
}

func BenchmarkDedupOff(b *testing.B) {
	benchDedup(b, core.Options{DisableDedup: true})
}

func benchDedup(b *testing.B, opts core.Options) {
	tc, _ := litmus.ByName("Figure10")
	pol := order.Relaxed()
	var states int
	for i := 0; i < b.N; i++ {
		res, err := core.Enumerate(context.Background(), tc.Build(), pol, opts)
		if err != nil {
			b.Fatal(err)
		}
		states = res.Stats.StatesExplored
	}
	b.ReportMetric(float64(states), "states/op")
}

// --- E13: read-modify-write atomics ---

func BenchmarkAtomics(b *testing.B) {
	for _, name := range []string{"CAS-Lock", "AtomicInc", "SwapExchange"} {
		b.Run(name, func(b *testing.B) { enumBench(b, name, "Relaxed", core.Options{}) })
	}
}

// --- E14: partial fences ---

func BenchmarkMembar(b *testing.B) {
	for _, name := range []string{"SB+MembarSL", "MP+Membar"} {
		b.Run(name, func(b *testing.B) { enumBench(b, name, "Relaxed", core.Options{}) })
	}
}

// --- E15: the store-buffer machine against the TSO model ---

func BenchmarkStoreBufferMachine(b *testing.B) {
	tc, _ := litmus.ByName("Figure10")
	m, _ := litmus.ModelByName("TSO")
	res, err := litmus.Run(tc, m)
	if err != nil {
		b.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, e := range res.Executions {
		allowed[e.SourceKey()] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for seed := int64(0); seed < 50; seed++ {
			tr, err := machine.RunTSO(tc.Build(), machine.Config{Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			if !allowed[tr.SourceKey()] {
				b.Fatalf("store-buffer machine escaped TSO: %s", tr.SourceKey())
			}
		}
	}
}

// --- E16: transactional filtering ---

func BenchmarkTransactions(b *testing.B) {
	build := func() *program.Program {
		pb := program.NewBuilder()
		pb.Init(program.X, 100)
		plus := func(d program.Value) program.OpFunc {
			return func(a []program.Value) program.Value { return a[0] + d }
		}
		ta := pb.Thread("A")
		ta.TxBegin()
		ta.Load(1, program.X)
		ta.Op(2, plus(-10), 1)
		ta.StoreReg(program.X, 2)
		ta.Load(3, program.Y)
		ta.Op(4, plus(10), 3)
		ta.StoreReg(program.Y, 4)
		ta.TxEnd()
		tb := pb.Thread("B")
		tb.TxBegin()
		tb.Load(5, program.X)
		tb.Load(6, program.Y)
		tb.TxEnd()
		return pb.Build()
	}
	var kept, dropped int
	for i := 0; i < b.N; i++ {
		res, d, err := txn.Enumerate(context.Background(), build(), order.SC(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		kept, dropped = len(res.Executions), d
	}
	b.ReportMetric(float64(kept), "kept/op")
	b.ReportMetric(float64(dropped), "dropped/op")
}

// --- E17: well-synchronization discipline ---

func BenchmarkDiscipline(b *testing.B) {
	tc, _ := litmus.ByName("MP")
	syncY := map[program.Addr]bool{program.Y: true}
	var violations int
	for i := 0; i < b.N; i++ {
		rep, err := discipline.Check(context.Background(), tc.Build(), order.Relaxed(), syncY, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		violations = len(rep.Violations)
	}
	b.ReportMetric(float64(violations), "violations/op")
}

// --- Oracle cross-validation cost (memoized exhaustive interleaving) ---

func BenchmarkOracleTSOFigure10(b *testing.B) {
	tc, _ := litmus.ByName("Figure10")
	var behaviors int
	for i := 0; i < b.N; i++ {
		set, err := randprog.OracleTSO(tc.Build())
		if err != nil {
			b.Fatal(err)
		}
		behaviors = len(set)
	}
	b.ReportMetric(float64(behaviors), "behaviors/op")
}

func BenchmarkOracleVsEngineSC(b *testing.B) {
	tc, _ := litmus.ByName("Figure5")
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := randprog.OracleSC(tc.Build()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Enumerate(context.Background(), tc.Build(), order.SC(), core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- The enumeration hot path across every experiment (E2–E15) ---

// BenchmarkEnum times exactly what TestEnumCounts pins: every enumSuite
// entry at width 1 under the entry's options. `go test -bench Enum
// -benchmem` runs this family plus the parallel scaling benchmarks below.
// Each entry also reports B/behavior, the live heap its result holds per
// recorded behavior (TestResultFootprint's measure), taken once after
// the first timed loop and outside the timer.
func BenchmarkEnum(b *testing.B) {
	for _, s := range enumSuite {
		var footprint float64
		b.Run(s.name(), func(b *testing.B) {
			tc, m, opts := s.setup(b)
			timeEnum(b, tc, m, opts)
			b.StopTimer()
			if footprint == 0 {
				footprint = liveBytesPerBehavior(b, s)
			}
			b.ReportMetric(footprint, "B/behavior")
		})
	}
}

// --- The budgeted width-2 path ---

// BenchmarkEnumWide times E15's program at width 2 under 256 KiB
// frontier and dedup budgets, bench/'s enum-wide budgets, so the
// seen-set spills, the frontier demotes and the workers steal.
// runs/op counts spill runs flushed, demoted/op frontier states demoted.
func BenchmarkEnumWide(b *testing.B) {
	tc := sb4w()
	m, _ := litmus.ModelByName("Relaxed")
	opts := core.Options{FrontierResidentBytes: 256 << 10, DedupMemBudget: 256 << 10}
	var runs, demoted int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Metrics = telemetry.NewEnumMetrics(nil)
		res, err := core.EnumerateParallel(context.Background(), tc.Build(), m.Policy, opts, 2)
		if err != nil {
			b.Fatal(err)
		}
		runs += opts.Metrics.SpillRuns.Value()
		demoted += int64(res.Stats.FrontierDemoted)
	}
	b.ReportMetric(float64(runs)/float64(b.N), "runs/op")
	b.ReportMetric(float64(demoted)/float64(b.N), "demoted/op")
}

// --- The engine against the reference engine ---

// BenchmarkPruning times the engine (incremental closure, prefix and
// symmetry pruning, copy-on-write trial-apply forks) against
// core.EnumerateReference, which runs none of those layers, on the heavy
// symmetric entries. The behavior sets are bit-identical (enforced by
// TestPruningBitIdentical* and TestCOWBitIdentical*); only the explored
// state count, allocations and wall-clock differ.
func BenchmarkPruning(b *testing.B) {
	for _, s := range []struct {
		test, model string
	}{
		{"SB3", "Relaxed"},
		{"SB3W", "Relaxed"},
		{"IRIW", "Relaxed"},
		{"Figure10", "Relaxed"},
	} {
		for _, c := range []struct {
			name string
			run  func(context.Context, *program.Program, order.Policy, core.Options) (*core.Result, error)
		}{
			{"engine", core.Enumerate},
			{"reference", core.EnumerateReference},
		} {
			b.Run(s.test+"_"+s.model+"/"+c.name, func(b *testing.B) {
				tc, _ := litmus.ByName(s.test)
				m, _ := litmus.ModelByName(s.model)
				opts := core.Options{Speculative: m.Speculative}
				var states int
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := c.run(context.Background(), tc.Build(), m.Policy, opts)
					if err != nil {
						b.Fatal(err)
					}
					states = res.Stats.StatesExplored
				}
				b.ReportMetric(float64(states), "states/op")
			})
		}
	}
}

// --- Parallel enumeration scaling ---

func BenchmarkEnumerateWorkers(b *testing.B) {
	tc, _ := litmus.ByName("Figure10")
	pol := order.Relaxed()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.EnumerateParallel(context.Background(), tc.Build(), pol, core.Options{}, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Enumeration scaling with thread count (chain programs) ---

// chainProgram builds an N-thread message chain: thread 0 stores, each
// later thread loads its predecessor's location and stores the value
// forward; a final load observes the end of the chain.
func chainProgram(n int) *program.Program {
	b := program.NewBuilder()
	b.Thread("T0").StoreL("S0", program.Addr(0), 1)
	for i := 1; i < n; i++ {
		tb := b.Thread(fmt.Sprintf("T%d", i))
		tb.LoadL(fmt.Sprintf("L%d", i), program.Reg(i), program.Addr(int32(i-1)))
		tb.StoreReg(program.Addr(int32(i)), program.Reg(i))
	}
	return b.Build()
}

func BenchmarkChainScaling(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("threads%d", n), func(b *testing.B) {
			var behaviors int
			for i := 0; i < b.N; i++ {
				res, err := core.Enumerate(context.Background(), chainProgram(n), order.Relaxed(), core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				behaviors = len(res.Executions)
			}
			b.ReportMetric(float64(behaviors), "behaviors/op")
		})
	}
}

// --- Machine scaling: window size sweep ---

func BenchmarkMachineWindow(b *testing.B) {
	tc, _ := litmus.ByName("IRIW")
	for _, w := range []int{1, 2, 8} {
		b.Run(map[int]string{1: "w1", 2: "w2", 8: "w8"}[w], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := machine.Run(tc.Build(), machine.Config{
					Policy: order.Relaxed(), Seed: int64(i), WindowSize: w,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
