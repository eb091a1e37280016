// Package discipline implements the prescriptive programming discipline
// sketched in the paper's conclusions: "we can say a program is well
// synchronized if for every load of a non-synchronization variable there
// is exactly one eligible store which can provide its value according to
// Store Atomicity. This idea generalizes the notion of Proper
// Synchronization to arbitrary synchronization mechanisms."
//
// Check enumerates a program under a model and watches every Load
// Resolution point: a load of a data (non-synchronization) address whose
// candidate set ever holds more than one store marks a race — the program
// is not well synchronized. Loads of declared synchronization addresses
// (flags, locks) are exempt; nondeterminism there is the synchronization
// mechanism doing its job.
package discipline

import (
	"context"

	"fmt"
	"sort"

	"storeatomicity/internal/core"
	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
)

// Violation is one racy resolution point.
type Violation struct {
	// Load is the label of the racy load.
	Load string
	// Addr is the data address it read.
	Addr program.Addr
	// Candidates are the store labels eligible at that point (> 1).
	Candidates []string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("load %s of address %d has %d eligible stores %v",
		v.Load, v.Addr, len(v.Candidates), v.Candidates)
}

// Report is the verdict for one program/model pair.
type Report struct {
	// WellSynchronized is true when no data load ever had more than
	// one candidate.
	WellSynchronized bool
	// Violations lists racy loads (deduplicated by load label, keeping
	// the largest candidate set seen).
	Violations []Violation
	// Result is the underlying enumeration, for further inspection.
	Result *core.Result
}

// Check enumerates p under pol and applies the well-synchronization
// criterion. syncAddrs lists the synchronization variables; all other
// addresses are data. The enumeration options' CandidateHook is
// overwritten (which keeps symmetry reduction off).
func Check(ctx context.Context, p *program.Program, pol order.Policy, syncAddrs map[program.Addr]bool, opts core.Options) (*Report, error) {
	return check(ctx, p, pol, syncAddrs, opts, core.Enumerate)
}

// check is Check over a given engine; tests pass core.EnumerateReference.
func check(ctx context.Context, p *program.Program, pol order.Policy, syncAddrs map[program.Addr]bool, opts core.Options,
	enumerate func(context.Context, *program.Program, order.Policy, core.Options) (*core.Result, error)) (*Report, error) {
	worst := map[string]Violation{}
	opts.CandidateHook = func(load string, addr program.Addr, candidates []string) {
		if syncAddrs[addr] || len(candidates) <= 1 {
			return
		}
		if prev, ok := worst[load]; !ok || len(candidates) > len(prev.Candidates) {
			worst[load] = Violation{Load: load, Addr: addr, Candidates: candidates}
		}
	}
	res, err := enumerate(ctx, p, pol, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{WellSynchronized: len(worst) == 0, Result: res}
	keys := make([]string, 0, len(worst))
	for k := range worst {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rep.Violations = append(rep.Violations, worst[k])
	}
	return rep, nil
}
