package core

import (
	"testing"

	"storeatomicity/internal/program"
)

// sbProgram builds the classic store-buffering shape used by the
// fingerprint tests; two invocations must produce identical listings.
func fpSBProgram() *program.Program {
	b := program.NewBuilder()
	ta := b.Thread("A")
	ta.Store(program.X, 1)
	ta.Load(1, program.Y)
	tb := b.Thread("B")
	tb.Store(program.Y, 1)
	tb.Load(2, program.X)
	return b.Build()
}

func TestProgramFingerprintDeterministic(t *testing.T) {
	a := ProgramFingerprint("TSO", fpSBProgram(), Options{})
	b := ProgramFingerprint("TSO", fpSBProgram(), Options{})
	if a != b {
		t.Fatalf("fingerprints of identical requests differ: %#x vs %#x", a, b)
	}
}

// TestProgramFingerprintSplitsOnBehaviorSetInputs: anything that can
// change the enumerated behavior set must change the key — the model,
// the program, speculation, and the budget cut-offs.
func TestProgramFingerprintSplitsOnBehaviorSetInputs(t *testing.T) {
	base := ProgramFingerprint("TSO", fpSBProgram(), Options{})
	cases := []struct {
		name  string
		model string
		prog  *program.Program
		opts  Options
	}{
		{"model", "SC", fpSBProgram(), Options{}},
		{"speculative", "TSO", fpSBProgram(), Options{Speculative: true}},
		{"max-behaviors", "TSO", fpSBProgram(), Options{MaxBehaviors: 3}},
		{"max-nodes", "TSO", fpSBProgram(), Options{MaxNodes: 64}},
		{"program", "TSO", func() *program.Program {
			b := program.NewBuilder()
			ta := b.Thread("A")
			ta.Store(program.X, 2)
			ta.Load(1, program.Y)
			tb := b.Thread("B")
			tb.Store(program.Y, 1)
			tb.Load(2, program.X)
			return b.Build()
		}(), Options{}},
	}
	for _, c := range cases {
		if got := ProgramFingerprint(c.model, c.prog, c.opts); got == base {
			t.Errorf("%s: fingerprint did not change (%#x)", c.name, got)
		}
	}
}

// TestProgramFingerprintIgnoresEquivalencePreservingOptions: options
// left out of the key (dedup and frontier budgets, exports, the dedup
// ablation — see fingerprint.go for why each is out) must not split
// it, and an unset budget must hash like the explicit default.
func TestProgramFingerprintIgnoresEquivalencePreservingOptions(t *testing.T) {
	base := ProgramFingerprint("Relaxed", fpSBProgram(), Options{})
	same := []Options{
		{MaxBehaviors: 1 << 20, MaxNodes: 192}, // the withDefaults values, explicit
		{DisableDedup: true},
		{DedupMemBudget: 4096},
		{FrontierResidentBytes: 1 << 20},
		{FrontierResidentBytes: -1},
		{ExportSeen: -1},
	}
	for i, opts := range same {
		if got := ProgramFingerprint("Relaxed", fpSBProgram(), opts); got != base {
			t.Errorf("case %d: equivalence-preserving option split the key: %#x vs %#x", i, got, base)
		}
	}
}

// TestProgramFingerprintSplitsOnVersion: the body-format version
// partitions the key space — a consumer holding version-N keys can never
// collide with version-N+1 answers (stale truncated behavior sets from
// an older engine must miss, not hit).
func TestProgramFingerprintSplitsOnVersion(t *testing.T) {
	cur := programFingerprintV(fingerprintVersion, "TSO", fpSBProgram(), Options{})
	next := programFingerprintV(fingerprintVersion+1, "TSO", fpSBProgram(), Options{})
	prev := programFingerprintV(fingerprintVersion-1, "TSO", fpSBProgram(), Options{})
	if cur == next || cur == prev || next == prev {
		t.Fatalf("versions do not partition the key space: v=%#x v+1=%#x v-1=%#x", cur, next, prev)
	}
	if got := ProgramFingerprint("TSO", fpSBProgram(), Options{}); got != cur {
		t.Fatalf("ProgramFingerprint is not version %d: %#x vs %#x", fingerprintVersion, got, cur)
	}
}
