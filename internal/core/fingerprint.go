package core

import (
	"storeatomicity/internal/program"
)

// The canonical request fingerprint. A memory model in this codebase is
// a pure function: (model, program, enumeration options that cut the
// behavior set) fully determine the set of final executions, so one
// 64-bit FNV-1a fingerprint over exactly those inputs is a sound memo
// key for any layer that caches or cross-checks enumeration results.
// Two layers consume it today: the distributed protocol's version-skew
// guard (internal/dist refuses a worker whose fingerprint disagrees
// with the job's) and the enumeration service's memo cache
// (internal/serve keys cached behavior sets by it).
//
// What is IN the key: the model name, the program listing, and the
// options that change which behaviors come back — Speculative (the
// model's aliasing discipline), MaxNodes, and MaxBehaviors (budget
// cut-offs truncate the set deterministically at width 1). Options are
// folded through withDefaults first, so an unset budget and the
// explicit default hash identically.
//
// What is OUT, and why, even for budget-truncated runs: the dedup and
// frontier budgets keep the exploration order
// (TestFingerprintExclusionsHoldWhenTruncated); incomplete results from
// engines wider than 1 are never cached (serve.ComputeBody); telemetry,
// checkpointing and ExportSeen only observe; SeedSeen is a fleet shard
// hint, and a shard that stops early leaves its job incomplete.
// DisableDedup and CandidateHook (which turns symmetry off) do change
// truncated sets — on 91 and 76 of the 341 registry keys a budget of
// 2–50 behaviors stops — and are out only because no flag, request or
// job spec can set them.

// fingerprintVersion is the body-format version folded into every
// fingerprint. Bump it whenever the engine changes WHAT a given
// (model, program, options) request returns — not just how fast. Version
// history:
//
//	1: implicit (unversioned keys).
//	2: trial-apply fork elision — a budget-truncated width-1 run now
//	   records leaf behaviors found during a sweep even when the budget
//	   expires before those children would have been popped, so
//	   truncated behavior sets (MaxBehaviors is in the key) differ from
//	   version 1's.
const fingerprintVersion = 2

// ProgramFingerprint returns the canonical (model, program, options)
// request fingerprint under the current body-format version.
func ProgramFingerprint(model string, p *program.Program, opts Options) uint64 {
	return programFingerprintV(fingerprintVersion, model, p, opts)
}

// programFingerprintV computes the fingerprint for an explicit format
// version; split out so tests can pin that versions partition the key
// space.
func programFingerprintV(version uint64, model string, p *program.Program, opts Options) uint64 {
	opts = opts.withDefaults()
	h := fnvMix(uint64(fnvOffset64), version)
	for _, b := range []byte(model) {
		h = fnvMix(h, uint64(b))
	}
	// A zero byte separates the fields: it cannot appear in the model
	// name or listing, so "SC"+"3W..." and "SC3"+"W..." cannot collide.
	h = fnvMix(h, 0)
	for _, b := range []byte(p.String()) {
		h = fnvMix(h, uint64(b))
	}
	h = fnvMix(h, 0)
	var spec uint64
	if opts.Speculative {
		spec = 1
	}
	h = fnvMix(h, spec)
	h = fnvMix(h, uint64(opts.MaxNodes))
	h = fnvMix(h, uint64(opts.MaxBehaviors))
	return h
}
