// Package core implements the paper's primary contribution: the Store
// Atomicity property over partially ordered execution graphs (Section 3.3)
// and the operational procedure that enumerates every behavior of a
// multithreaded program under a store-atomic memory model (Section 4).
package core

import (
	"fmt"
	"sort"
	"strings"

	"storeatomicity/internal/graph"
	"storeatomicity/internal/program"
)

// NoNode marks an absent node reference (no producer, no source).
const NoNode = -1

// Node is one executed (or in-flight) instruction instance in an execution
// graph. A node is generated in the *unresolved* state and becomes
// *resolved* once its value is computed — for Loads, only through Load
// Resolution (Section 4.1 step 3).
type Node struct {
	// ID is the node's index in the execution's node slice and graph.
	ID int
	// Thread is the thread index, or -1 for the start barrier and
	// initializing stores.
	Thread int
	// PC is the instruction's index in the thread's program text.
	PC int
	// Seq is the node's dynamic position within its thread (counts
	// generated instances; differs from PC in the presence of
	// branches).
	Seq int
	// Label names the node in results and diagnostics.
	Label string

	// Kind mirrors the instruction kind.
	Kind program.Kind
	// AddrKnown reports whether Addr is valid. Constant-address memory
	// operations know their address at generation; register-indirect
	// ones learn it when the producing instruction resolves. Section
	// 5's aliasing study is entirely about when this transition
	// happens relative to reordering.
	AddrKnown bool
	Addr      program.Addr

	// Resolved reports whether Val is valid.
	Resolved bool
	Val      program.Value

	// Source is the node ID of the Store a resolved Load (or the load
	// half of an Atomic) observed.
	Source int
	// Bypassed marks a TSO Load satisfied by a program-order-earlier
	// local Store: the observation carries no @ edge (Section 6).
	Bypassed bool
	// DidStore marks a resolved Atomic whose store half took effect
	// (always for Swap/Add; only on a successful comparison for CAS).
	DidStore bool
	// StoreVal is the value a DidStore Atomic wrote. For Loads and
	// Atomics, Val is the value *read*.
	StoreVal program.Value

	// Producer node IDs (NoNode when absent): addrDep feeds a
	// register-indirect address, valDep a Store's register data,
	// condDep a Branch condition, argDeps an Op's operands.
	addrDep, valDep, condDep int
	argDeps                  []int

	// instr points at the instruction in the program text (zeroInstr for
	// the start barrier and initializing stores). Nodes only read it, and
	// no caller writes a built program's instructions, so every fork and
	// every recorded execution shares it.
	instr *program.Instr

	// epoch is the generate() pass that created the node (0 for the
	// start barrier and initializing stores). Node IDs are assigned in
	// (epoch, class, thread, seq)-lexicographic order, which is what lets
	// the symmetry reduction reconstruct a permuted run's ID assignment.
	epoch int32
}

// zeroInstr is the instruction of the nodes no thread generates: the start
// barrier and the initializing stores.
var zeroInstr program.Instr

// IsMemory reports whether the node reads or writes memory.
func (n *Node) IsMemory() bool {
	return n.Kind == program.KindLoad || n.Kind == program.KindStore || n.Kind == program.KindAtomic
}

// Reads reports whether the node observes a store (Loads and Atomics).
func (n *Node) Reads() bool {
	return n.Kind == program.KindLoad || n.Kind == program.KindAtomic
}

// StoreEffect reports whether the node certainly writes memory: plain
// Stores always (even before their value resolves), Atomics once resolved
// with a successful store half.
func (n *Node) StoreEffect() bool {
	return n.Kind == program.KindStore || (n.Kind == program.KindAtomic && n.Resolved && n.DidStore)
}

// StoredValue returns the value a StoreEffect node wrote.
func (n *Node) StoredValue() program.Value {
	if n.Kind == program.KindAtomic {
		return n.StoreVal
	}
	return n.Val
}

// FenceMask returns a Fence node's partial-fence mask (0 = full fence).
func (n *Node) FenceMask() uint8 { return n.instr.FenceMask }

// Tx returns the node's transaction ID (0 = not transactional).
func (n *Node) Tx() int { return n.instr.Tx }

// String renders the node for diagnostics.
func (n *Node) String() string {
	s := fmt.Sprintf("#%d %s %s", n.ID, n.Label, n.Kind)
	if n.IsMemory() {
		if n.AddrKnown {
			s += fmt.Sprintf(" @%d", n.Addr)
		} else {
			s += " @?"
		}
	}
	if n.Resolved {
		s += fmt.Sprintf(" =%d", n.Val)
		if n.Reads() && n.Source != NoNode {
			s += fmt.Sprintf(" src=#%d", n.Source)
			if n.Bypassed {
				s += "(bypass)"
			}
		}
		if n.Kind == program.KindAtomic {
			if n.DidStore {
				s += fmt.Sprintf(" stored=%d", n.StoreVal)
			} else {
				s += " nostore"
			}
		}
	}
	return s
}

// Execution is one completed behavior: a fully resolved execution graph in
// the sense of Section 3.1, ⟨≺, source, =ₐ⟩ closed under Store Atomicity.
// It owns exact-size copies of what it reports and shares no storage with
// the engine, whose states are recycled once they finish; only the
// instructions its nodes refer to are the program's own.
type Execution struct {
	// Graph is the @ order: local (≺), alias, source, and derived
	// atomicity edges. TSO bypass observations are NOT edges here; see
	// Bypasses.
	Graph *graph.Graph
	// Nodes indexes node metadata by graph ID.
	Nodes []Node
	// Bypasses lists (store, load) observation pairs excluded from @
	// (the grey edges of Figure 11).
	Bypasses [][2]int
	// Model names the policy that produced the execution.
	Model string
	// Path is the Load Resolution sequence that produced the execution;
	// replaying it from the root state (see Checkpoint) rebuilds the
	// execution deterministically.
	Path []PathStep
}

// LoadValues maps each reading node's label (Loads and Atomics) to the
// value it observed.
func (e *Execution) LoadValues() map[string]program.Value {
	out := map[string]program.Value{}
	for i := range e.Nodes {
		n := &e.Nodes[i]
		if n.Reads() && n.Resolved {
			out[n.Label] = n.Val
		}
	}
	return out
}

// LoadSources maps each reading node's label to the label of the Store it
// observed.
func (e *Execution) LoadSources() map[string]string {
	out := map[string]string{}
	for i := range e.Nodes {
		n := &e.Nodes[i]
		if n.Reads() && n.Resolved && n.Source != NoNode {
			out[n.Label] = e.Nodes[n.Source].Label
		}
	}
	return out
}

// Key returns a canonical outcome key "label=value;..." over all Loads,
// sorted by label. Two executions with equal keys observed the same values
// (they may still differ in which stores supplied them; see SourceKey).
func (e *Execution) Key() string {
	vals := e.LoadValues()
	labels := make([]string, 0, len(vals))
	for l := range vals {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s=%d", l, vals[l])
	}
	return b.String()
}

// Fingerprint returns the 64-bit FNV-1a hash of the execution's canonical
// Load–Store-graph encoding (node count plus resolved (load, source)
// pairs) — the same key the enumeration engine dedups on. Two executions
// of one program under one model are equivalent iff their fingerprints
// match (up to hash collision; see the dedupcheck build tag).
func (e *Execution) Fingerprint() uint64 { return fingerprintNodes(e.Nodes) }

// SourceKey returns a canonical key over (load label → source label) pairs;
// it identifies the execution up to equivalence, since every edge is a
// deterministic function of the program, the model, and the source map.
func (e *Execution) SourceKey() string {
	srcs := e.LoadSources()
	labels := make([]string, 0, len(srcs))
	for l := range srcs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s<-%s", l, srcs[l])
	}
	return b.String()
}

// MemoryNodeIDs returns the IDs of Load/Store nodes (including
// initializing stores), ascending.
func (e *Execution) MemoryNodeIDs() []int {
	var out []int
	for i := range e.Nodes {
		if e.Nodes[i].IsMemory() {
			out = append(out, i)
		}
	}
	return out
}

// NodeByLabel returns the node with the given label, or nil.
func (e *Execution) NodeByLabel(label string) *Node {
	for i := range e.Nodes {
		if e.Nodes[i].Label == label {
			return &e.Nodes[i]
		}
	}
	return nil
}

// Source returns the observed store node for a resolved Load node ID
// (NoNode otherwise).
func (e *Execution) Source(load int) int { return e.Nodes[load].Source }

// String renders the execution compactly: one line per memory node plus
// the derived-edge count.
func (e *Execution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "execution [%s] %s\n", e.Model, e.Key())
	for i := range e.Nodes {
		if e.Nodes[i].IsMemory() {
			fmt.Fprintf(&b, "  %s\n", e.Nodes[i].String())
		}
	}
	return b.String()
}
