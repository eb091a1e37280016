package cli

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// The flag audit: every binary registers the engine flags through the one
// helper (RegisterEngineFlags) or not at all, and must not grow (or lose)
// them without this matrix saying so. The check reads the cmd/*/main.go
// sources, because what we are pinning is the registration itself — a
// hand-rolled flag would still pass any behavioral test that only
// exercises the happy path.

// engineFlags says which binaries register the engine flags (-dedup-mem
// and -frontier-resident). Every binary that enumerates locally takes
// them; mmworker inherits its options from the coordinator's job and
// mmobs never enumerates at all.
var engineFlags = map[string]bool{
	"mmcoord":  true,
	"mmenum":   true,
	"mmfuzz":   true,
	"mmload":   true,
	"mmserve":  true,
	"mmlitmus": true,
	"mmrace":   true,
	"mmsim":    true,
	"mmverify": true,
	"mmworker": false,
	"mmobs":    false,
}

// noTelemetry lists binaries allowed to skip tel.RegisterFlags (and so
// -metrics-addr): only mmobs, which merges other runs' telemetry
// instead of emitting its own.
var noTelemetry = map[string]bool{"mmobs": true}

var (
	helperReg = regexp.MustCompile(`cli\.RegisterEngineFlags\("[^"]*"\)`)
	// A registered set is used when it reaches Apply — directly, or
	// (mmcoord) forwarded in a dist job whose receiver applies it.
	helperUse = regexp.MustCompile(`\.Apply\(&|FrontierResident:\s*\w+\.FrontierResident`)
	byHand    = regexp.MustCompile(`flag\.\w+\("(dedup-mem|frontier-resident)"`)
	// The engine has one configuration: no binary may bring back a
	// flag that selects another.
	removed = regexp.MustCompile(`flag\.\w+\("(prune|cow)"`)
	telReg  = regexp.MustCompile(`\btel\.RegisterFlags\(\)`)
)

func TestFlagMatrix(t *testing.T) {
	cmdDir := filepath.Join("..", "..", "cmd")
	entries, err := os.ReadDir(cmdDir)
	if err != nil {
		t.Fatal(err)
	}
	var tools []string
	for _, e := range entries {
		if e.IsDir() {
			tools = append(tools, e.Name())
		}
	}
	sort.Strings(tools)

	// The matrix and the cmd tree must agree exactly: a new binary must
	// be added to the matrix (deciding its engine flags deliberately),
	// and a deleted one must be removed.
	for _, tool := range tools {
		if _, ok := engineFlags[tool]; !ok {
			t.Errorf("cmd/%s is not in the flag matrix — add it and decide which engine flags it takes", tool)
		}
	}
	for tool := range engineFlags {
		found := false
		for _, d := range tools {
			if d == tool {
				found = true
			}
		}
		if !found {
			t.Errorf("flag matrix lists %s but cmd/%s does not exist", tool, tool)
		}
	}

	for _, tool := range tools {
		want, ok := engineFlags[tool]
		if !ok {
			continue
		}
		src, err := os.ReadFile(filepath.Join(cmdDir, tool, "main.go"))
		if err != nil {
			t.Errorf("%s: %v", tool, err)
			continue
		}
		if telReg.Match(src) == noTelemetry[tool] {
			if noTelemetry[tool] {
				t.Errorf("%s: now calls tel.RegisterFlags() — drop it from the noTelemetry exemption", tool)
			} else {
				t.Errorf("%s: missing tel.RegisterFlags() — every emitting binary exposes -metrics-addr and friends", tool)
			}
		}
		if byHand.Match(src) {
			t.Errorf("%s: registers an engine flag by hand — use cli.RegisterEngineFlags", tool)
		}
		if removed.Match(src) {
			t.Errorf("%s: registers the removed -prune or -cow flag", tool)
		}
		registers := helperReg.Match(src)
		if registers != want {
			t.Errorf("%s: calls cli.RegisterEngineFlags=%v, matrix says %v", tool, registers, want)
			continue
		}
		if registers && !helperUse.Match(src) {
			t.Errorf("%s: registers the engine flags but never applies them", tool)
		}
	}
}
