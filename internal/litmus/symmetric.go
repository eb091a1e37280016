package litmus

import (
	"storeatomicity/internal/program"
)

// Symmetric litmus tests: n-thread generalizations of store buffering
// whose thread/address rotation symmetry the engine's symmetry
// reduction exploits. They double as the heavy entries of
// the benchmark suite — SB3W's nine memory operations blow the state
// space up far past the paper figures — and as correctness fixtures for
// the symmetry property tests (the rotation group has order 3, so every
// behavior orbit has one or three members).

// Symmetric returns the rotation-symmetric tests.
func Symmetric() []*Test {
	return []*Test{SB3(), SB3W()}
}

// SB3 is three-thread cyclic store buffering:
//
//	Thread A: S x,1 ; r1 = L y
//	Thread B: S y,1 ; r2 = L z
//	Thread C: S z,1 ; r3 = L x
//
// All loads reading 0 needs store→load reordering in every thread (the
// SC cycle S_A ≺ L_A < S_B ≺ L_B < S_C ≺ L_C < S_A): forbidden under
// SC, allowed under TSO and weaker. Rotating threads A→B→C→A together
// with addresses x→y→z→x maps the program onto itself.
func SB3() *Test {
	build := func() *program.Program {
		b := program.NewBuilder()
		b.Thread("A").StoreL("Sx", program.X, 1).LoadL("La", 1, program.Y)
		b.Thread("B").StoreL("Sy", program.Y, 1).LoadL("Lb", 2, program.Z)
		b.Thread("C").StoreL("Sz", program.Z, 1).LoadL("Lc", 3, program.X)
		return b.Build()
	}
	allZero := Outcome{"La": 0, "Lb": 0, "Lc": 0}
	allOne := Outcome{"La": 1, "Lb": 1, "Lc": 1}
	return &Test{
		Name:  "SB3",
		Doc:   "Cyclic 3-thread store buffering; rotation-symmetric.",
		Build: build,
		Expect: []Expectation{
			{Model: "SC", Forbidden: []Outcome{allZero}, Allowed: []Outcome{allOne}},
			{Model: "TSO", Allowed: []Outcome{allZero, allOne}},
			{Model: "PSO", Allowed: []Outcome{allZero, allOne}},
			{Model: "Relaxed", Allowed: []Outcome{allZero, allOne}},
		},
	}
}

// SB3W is SB3 widened to two loads per thread:
//
//	Thread A: S x,1 ; r1 = L y ; r2 = L z
//	Thread B: S y,1 ; r3 = L z ; r4 = L x
//	Thread C: S z,1 ; r5 = L x ; r6 = L y
//
// Nine memory operations with two candidates per load make this the
// heavy end of the enumeration benchmarks; the same rotation symmetry
// applies. All-zero embeds the SB3 cycle (via La1/Lb1/Lc1), so it stays
// forbidden under SC; under TSO all loads may run before the local
// store, so all-zero is allowed.
func SB3W() *Test {
	build := func() *program.Program {
		b := program.NewBuilder()
		b.Thread("A").StoreL("Sx", program.X, 1).LoadL("La1", 1, program.Y).LoadL("La2", 2, program.Z)
		b.Thread("B").StoreL("Sy", program.Y, 1).LoadL("Lb1", 3, program.Z).LoadL("Lb2", 4, program.X)
		b.Thread("C").StoreL("Sz", program.Z, 1).LoadL("Lc1", 5, program.X).LoadL("Lc2", 6, program.Y)
		return b.Build()
	}
	allZero := Outcome{"La1": 0, "La2": 0, "Lb1": 0, "Lb2": 0, "Lc1": 0, "Lc2": 0}
	allOne := Outcome{"La1": 1, "La2": 1, "Lb1": 1, "Lb2": 1, "Lc1": 1, "Lc2": 1}
	return &Test{
		Name:  "SB3W",
		Doc:   "Wide cyclic store buffering: 3 stores, 6 loads; rotation-symmetric.",
		Build: build,
		Expect: []Expectation{
			{Model: "SC", Forbidden: []Outcome{allZero}, Allowed: []Outcome{allOne}},
			{Model: "TSO", Allowed: []Outcome{allZero, allOne}},
			{Model: "Relaxed", Allowed: []Outcome{allZero, allOne}},
		},
	}
}
