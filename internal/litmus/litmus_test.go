package litmus

import (
	"testing"
)

// TestCorpusExpectations enumerates every registered test under every
// model configuration that has expectations and verifies each
// allowed/forbidden outcome. This is the top-level reproduction check for
// experiments E2, E3, E4, E6, E7, and E12 (DESIGN.md).
func TestCorpusExpectations(t *testing.T) {
	for _, tc := range Registry() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			needed := map[string]bool{}
			for _, ex := range tc.Expect {
				needed[ex.Model] = true
			}
			for _, m := range Models() {
				if !needed[m.Name] {
					continue
				}
				res, err := Run(tc, m)
				if err != nil {
					t.Fatalf("%s under %s: %v", tc.Name, m.Name, err)
				}
				for _, msg := range CheckResult(tc, m.Name, res) {
					t.Error(msg)
				}
			}
		})
	}
}

// TestRegistryNamesUnique guards the registry against accidental
// duplicate names (ByName would silently shadow).
func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, tc := range Registry() {
		if seen[tc.Name] {
			t.Errorf("duplicate test name %q", tc.Name)
		}
		seen[tc.Name] = true
		if tc.Doc == "" {
			t.Errorf("%s: missing Doc", tc.Name)
		}
		if tc.Build == nil {
			t.Fatalf("%s: missing Build", tc.Name)
		}
	}
}

// TestNonSpeculativeNeverRollsBack asserts the paper's framing that only
// speculation "can go wrong": non-speculative enumeration must never
// discard an inconsistent behavior.
func TestNonSpeculativeNeverRollsBack(t *testing.T) {
	for _, tc := range Registry() {
		for _, m := range Models() {
			if m.Speculative {
				continue
			}
			res, err := Run(tc, m)
			if err != nil {
				t.Fatalf("%s under %s: %v", tc.Name, m.Name, err)
			}
			if res.Stats.Rollbacks != 0 {
				t.Errorf("%s under %s: %d rollbacks in non-speculative enumeration",
					tc.Name, m.Name, res.Stats.Rollbacks)
			}
		}
	}
}

// TestByNameIndex: ByName finds every registered test, and serves
// lookups from an index built once instead of rebuilding the registry
// per call (mmserve looks a test up on every registry-name request).
func TestByNameIndex(t *testing.T) {
	for _, tc := range Registry() {
		if got, ok := ByName(tc.Name); !ok || got.Name != tc.Name {
			t.Errorf("ByName(%q) = %v, %v", tc.Name, got, ok)
		}
	}
	if _, ok := ByName("NoSuchTest"); ok {
		t.Error("ByName found an unregistered name")
	}
	if n := testing.AllocsPerRun(100, func() { ByName("SB") }); n != 0 {
		t.Errorf("ByName allocates %v times per call, want 0", n)
	}
}
