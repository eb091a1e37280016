package core_test

import (
	"context"
	"reflect"
	"testing"

	"storeatomicity/internal/core"
	"storeatomicity/internal/graph"
	"storeatomicity/internal/litmus"
)

// TestResultSharesNoStorage holds every recorded execution to a fresh
// replay of its own path. The engine recycles finished states through its
// pools, so an Execution that kept any buffer of the state it was recorded
// from (nodes, path, bypasses, graph rows or edges) would be overwritten by
// later forks and would no longer match. A 1-byte frontier budget and a
// 256-byte seen-set budget push every run through demotion, revival and
// spill, and width 2 adds stealing, so states churn through the pools far
// more than in a plain run.
func TestResultSharesNoStorage(t *testing.T) {
	ctx := context.Background()
	for _, lt := range litmus.Registry() {
		for _, m := range litmus.Models() {
			p := lt.Build()
			plain := core.Options{Speculative: m.Speculative}
			budgeted := plain
			budgeted.FrontierResidentBytes, budgeted.DedupMemBudget = 1, 256
			for _, width := range []int{1, 2} {
				res, err := core.EnumerateParallel(ctx, p, m.Policy, budgeted, width)
				if err != nil {
					t.Fatalf("%s/%s width %d: %v", lt.Name, m.Name, width, err)
				}
				seen := map[uint64]bool{}
				for _, x := range res.Executions {
					if h := x.Fingerprint(); seen[h] {
						t.Fatalf("%s/%s width %d: two executions read %s", lt.Name, m.Name, width, x.SourceKey())
					} else {
						seen[h] = true
					}
					// The replay is the same program, so the nodes' instruction
					// pointers must be equal too.
					fresh, err := core.MergeCompleted(ctx, p, m.Policy, core.NoSymmetry(plain), [][]core.PathStep{x.Path})
					if err != nil || len(fresh.Executions) != 1 {
						t.Fatalf("%s/%s width %d: replay of %s: %d executions, %v", lt.Name, m.Name, width, x.SourceKey(), len(fresh.Executions), err)
					}
					if msg := sameExecution(x, fresh.Executions[0]); msg != "" {
						t.Fatalf("%s/%s width %d: %s differs from its replay: %s", lt.Name, m.Name, width, x.SourceKey(), msg)
					}
				}
			}
		}
	}
}

// sameExecution compares what an execution reports with want: its nodes,
// bypasses, path, edge multiset and every closure row. It returns "" when
// they match.
func sameExecution(got, want *core.Execution) string {
	switch {
	case !reflect.DeepEqual(got.Nodes, want.Nodes):
		return "nodes"
	case !reflect.DeepEqual(got.Bypasses, want.Bypasses):
		return "bypasses"
	case !reflect.DeepEqual(got.Path, want.Path):
		return "path"
	case got.Graph.Len() != len(got.Nodes) || want.Graph.Len() != len(want.Nodes):
		return "graph size"
	}
	edges := map[graph.Edge]int{}
	for _, e := range got.Graph.Edges() {
		edges[e]++
	}
	for _, e := range want.Graph.Edges() {
		edges[e]--
	}
	for e, n := range edges {
		if n != 0 {
			return "edge " + e.Kind.String()
		}
	}
	for i := range got.Nodes {
		if !got.Graph.Desc(i).Equal(want.Graph.Desc(i)) || !got.Graph.Anc(i).Equal(want.Graph.Anc(i)) {
			return "closure row of " + got.Nodes[i].Label
		}
	}
	return ""
}
