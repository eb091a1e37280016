package core

import (
	"errors"
	"fmt"
	"strconv"

	"storeatomicity/internal/graph"
	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
)

// errInconsistent marks a behavior that violated Store Atomicity (cycle in
// @). In non-speculative enumeration this never fires; in speculative
// enumeration it is the rollback trigger of Section 5.2.
var errInconsistent = errors.New("core: execution violates store atomicity")

// threadState carries the per-thread program counter and register file
// ("the PC and register state of each of its threads", Section 4).
// Registers are a flat slice indexed by register ID — programs use small
// dense register numbers — mapping each register to the node that produces
// its current value (noNode32 = unwritten, reads as zero). The flat layout
// makes a fork a single copy() instead of a map rebuild.
type threadState struct {
	pc      int
	regs    []int32
	blocked int // node ID of the unresolved branch blocking generation, or NoNode
	genSeq  int // dynamic instruction count, for Node.Seq
}

const noNode32 = int32(NoNode)

// aliasPair records two same-thread memory nodes whose reordering
// requirement is address-dependent and not yet decidable (at least one
// address unknown at generation time).
type aliasPair struct {
	earlier, later int
	done           bool
}

// addrSet is the per-address memory-node index, maintained incrementally
// as nodes are generated and resolved so the Store Atomicity closure and
// candidates(L) never rebuild it. stores holds store-effect nodes with
// this (known) address, including the initializing store; loads holds
// resolved reading nodes.
type addrSet struct {
	addr   program.Addr
	init   int // initializing store node ID
	stores []int32
	loads  []int32
	// storeBits mirrors stores as a bitset over node IDs, so the closure
	// rules and candidates(L) can intersect "store-effect nodes at this
	// address" against closure rows word-by-word instead of probing the
	// graph once per store.
	storeBits graph.Bits
}

// state is one in-flight behavior: program graph, thread states, and
// bookkeeping. It forks at Load Resolution; forks go through a statePool
// so retired behaviors donate their buffers (graph bitsets, node slices,
// register files) instead of being garbage.
type state struct {
	prog *program.Program
	pol  order.Policy
	opts Options

	g     *graph.Graph
	nodes []Node

	threads []threadState
	// nregs is the register-file size shared by every thread
	// (max register ID referenced by the program, plus one).
	nregs int

	// start is the barrier node ordered after initializing stores and
	// before every thread node.
	start int

	// addrs is the address directory: initializing store plus the
	// incrementally maintained store/load index per known address.
	// Address counts are tiny, so lookup is a linear scan.
	addrs []addrSet

	// byThread lists memory/fence/branch node IDs per thread in
	// program (generation) order, for reordering-axiom edge insertion.
	byThread [][]int

	aliases  []aliasPair
	bypasses [][2]int

	// epoch counts generate() calls; every node is stamped with the
	// epoch it was generated in. Together with (thread, seq) this makes
	// node-ID assignment reconstructible under a thread permutation —
	// the basis of the symmetry reduction's image-ID mapping.
	epoch int32

	// dirty queues nodes for the incremental closure's next worklist:
	// membership changes in the per-address index (noteStore/noteLoad)
	// are invisible to the graph's closure change log, so they are
	// recorded here. Only used when the graph's change log is on.
	dirty graph.Bits
	// work is the incremental closure's per-pass worklist (scratch;
	// never copied by fork).
	work graph.Bits

	// memBits/readsBits/resolvedBits are node-property masks maintained
	// alongside the node slice: memory nodes (IsMemory), reading nodes
	// (Reads), and resolved nodes. The closure rules, eligible(), and
	// candidates(L) phrase their per-node predicates as word-level
	// intersections of these masks with closure rows; they are part of
	// the behavior's identity and are copied by fork.
	memBits      graph.Bits
	readsBits    graph.Bits
	resolvedBits graph.Bits
	// eligCache memoizes eligible() per node (eligStale until computed);
	// entries are invalidated by closure growth and by resolutions.
	eligCache []uint8
	// newRMW lists store-effect atomics resolved since the last closure,
	// for the incremental RMW-indivisibility check.
	newRMW []int32

	// symKeys/symIDs are scratch for the symmetry reduction's image-ID
	// mapping (symImageNodes).
	symKeys []uint64
	symIDs  []int32

	// prepValid/prepPairs/prepPermImg/prepPermPairs cache the dedup-key
	// ingredients of the quiesced state (prepDedup): the sorted resolved
	// pairs, and per automorphism the image-ID map and sorted image
	// pairs. childKey reads them to price a would-be child's dedup key
	// without forking. fork invalidates the clone's cache; the backing
	// arrays are reused across pool recycles.
	prepValid     bool
	prepPairs     [][2]int32
	prepPermImg   [][]int32
	prepPermPairs [][][2]int32

	// shard is the metric shard / trace lane for telemetry: the index of
	// the engine worker currently processing this behavior (0 at width
	// 1). The owning engine sets it before each
	// quiescence run; it is never part of the behavior's identity.
	shard int

	// path is the Load Resolution sequence that produced this behavior
	// from the root state. It is the behavior's replayable identity:
	// checkpoints serialize frontier paths, and panic reports carry the
	// crashing behavior's path for deterministic reproduction.
	path []PathStep

	// opScratch is reused by execute() when evaluating Op arguments;
	// candScratch by candidates(); ancScratch/descScratch by ruleC's
	// common-ancestor/descendant intersections; ruleScratch/maskScratch
	// by the word-level closure rules; candMask/owScratch by the
	// word-level candidates(L). None survive a call.
	opScratch   []program.Value
	candScratch []int
	ancScratch  graph.Bits
	descScratch graph.Bits
	ruleScratch graph.Bits
	maskScratch graph.Bits
	candMask    graph.Bits
	owScratch   graph.Bits

	// maskBuf is the arena behind the node-property masks, the bitset
	// scratches above, and the per-address store masks: fork carves them
	// all from one allocation (ensureMaskArena) instead of paying one
	// apiece, and a recycled state keeps its arena.
	maskBuf graph.Bits
}

// maxReg returns the register-file size needed by p.
func maxReg(p *program.Program) int {
	max := int32(-1)
	note := func(r program.Reg) {
		if int32(r) > max {
			max = int32(r)
		}
	}
	for _, t := range p.Threads {
		for _, in := range t.Instrs {
			switch in.Kind {
			case program.KindLoad, program.KindOp, program.KindAtomic:
				note(in.Dest)
			}
			if in.UseAddrReg {
				note(in.AddrReg)
			}
			if in.UseValReg {
				note(in.ValReg)
			}
			if in.Kind == program.KindBranch {
				note(in.CondReg)
			}
			for _, r := range in.Args {
				note(r)
			}
		}
	}
	return int(max) + 1
}

// newState builds the initial behavior: start barrier, initializing
// stores for every statically known address, and empty threads.
func newState(p *program.Program, pol order.Policy, opts Options) *state {
	addrs := p.Addresses()
	instrs := 0
	for _, t := range p.Threads {
		instrs += len(t.Instrs)
	}
	capHint := len(addrs) + 2 + instrs + len(p.Threads)
	s := &state{
		prog:     p,
		pol:      pol,
		opts:     opts,
		g:        graph.New(0, capHint*2),
		nregs:    maxReg(p),
		threads:  make([]threadState, len(p.Threads)),
		byThread: make([][]int, len(p.Threads)),
		addrs:    make([]addrSet, 0, len(addrs)+2),
		// Sized up front: a state replayed from the root generates every
		// node, and growing the slice from empty reallocated it about
		// log2(nodes) times per replay.
		nodes: make([]Node, 0, capHint),
	}
	if opts.disableCOW {
		// Deep-copy forks for the reference engine. Must precede node
		// creation.
		s.g.DisableCOW()
	}
	if !opts.disableIncrementalClosure {
		// The worklist closure keys off the graph's change log; enable it
		// before any edge exists so no closure growth goes unrecorded.
		s.g.EnableChangeLog()
	}
	// Initializing stores precede everything (Section 4: "Memory is
	// initialized with Store operations before any thread is started").
	for _, a := range addrs {
		s.addInitStore(a, p.Init[a], false)
	}
	s.start = s.g.AddNodes(1)
	s.nodes = append(s.nodes, Node{
		ID: s.start, Thread: -1, Kind: program.KindFence, Label: "start",
		Resolved: true, Source: NoNode, addrDep: NoNode, valDep: NoNode, condDep: NoNode,
		instr: &zeroInstr,
	})
	s.setNodeMask(&s.resolvedBits, s.start)
	for i := range s.addrs {
		mustEdge(s.g.AddEdge(s.addrs[i].init, s.start, graph.EdgeLocal))
	}
	for i := range s.threads {
		regs := make([]int32, s.nregs)
		for r := range regs {
			regs[r] = noNode32
		}
		s.threads[i] = threadState{regs: regs, blocked: NoNode}
	}
	// Each thread's list is carved at its instruction count from one
	// allocation, like the node slice above: a loop that generates more
	// outgrows its capped slot by reallocating it.
	ids := make([]int, instrs)
	for i, t := range p.Threads {
		n := len(t.Instrs)
		s.byThread[i], ids = ids[:0:n], ids[n:]
	}
	return s
}

// addrIdx returns the directory index for address a, or -1.
func (s *state) addrIdx(a program.Addr) int {
	for i := range s.addrs {
		if s.addrs[i].addr == a {
			return i
		}
	}
	return -1
}

// noteStore registers a store-effect node with a known address in the
// per-address index. The directory entry exists because every known
// address has an initializing store created first.
func (s *state) noteStore(id int, a program.Addr) {
	i := s.addrIdx(a)
	s.addrs[i].stores = append(s.addrs[i].stores, int32(id))
	s.addrs[i].storeBits = s.addrs[i].storeBits.Grown(id + 1)
	s.addrs[i].storeBits.Set(id)
	s.markDirty(id)
}

// noteLoad registers a resolved reading node in the per-address index.
func (s *state) noteLoad(id int, a program.Addr) {
	i := s.addrIdx(a)
	s.addrs[i].loads = append(s.addrs[i].loads, int32(id))
	s.markDirty(id)
}

// setNodeMask grows a node-property mask to cover id and sets its bit.
// Masks live on the state by address so the grow-reallocation is stored
// back.
func (s *state) setNodeMask(m *graph.Bits, id int) {
	*m = m.Grown(id + 1)
	m.Set(id)
}

// markDirty queues node id for the incremental closure's next pass.
// Index-membership changes must be marked explicitly — the graph change
// log only sees closure growth.
func (s *state) markDirty(id int) {
	if s.g.ChangeLogEnabled() {
		s.dirty = s.dirty.Grown(id + 1)
		s.dirty.Set(id)
	}
}

// addInitStore creates the initializing store node for address a. When
// late is true the store is being discovered mid-run (a register-indirect
// access hit an address with no static reference); it is still ordered
// before the start barrier, which is sound because a fresh node has no
// predecessors.
func (s *state) addInitStore(a program.Addr, v program.Value, late bool) int {
	id := s.g.AddNodes(1)
	s.nodes = append(s.nodes, Node{
		ID: id, Thread: -1, Kind: program.KindStore,
		Label:     "init:" + strconv.Itoa(int(a)),
		AddrKnown: true, Addr: a, Resolved: true, Val: v,
		Source: NoNode, addrDep: NoNode, valDep: NoNode, condDep: NoNode,
		instr: &zeroInstr,
	})
	ms := addrSet{addr: a, init: id, stores: []int32{int32(id)}}
	ms.storeBits = graph.NewBits(id + 1)
	ms.storeBits.Set(id)
	s.addrs = append(s.addrs, ms)
	s.setNodeMask(&s.memBits, id)
	s.setNodeMask(&s.resolvedBits, id)
	s.markDirty(id)
	if late {
		mustEdge(s.g.AddEdge(id, s.start, graph.EdgeLocal))
	}
	return id
}

func mustEdge(err error) {
	if err != nil {
		panic("core: unexpected cycle inserting structural edge: " + err.Error())
	}
}

// ensureMaskArena gives the state's bitset family — dirty mask, node
// property masks, the six closure/candidates scratches, and one store
// mask per address — capacity w words each out of a single backing
// allocation. The CopyInto/Grown calls that fill them then reuse the
// carved capacity instead of allocating; w is the graph's uniform row
// width, so nothing regrows while the graph stays within capacity. A
// no-op when the existing arena is big enough (recycled states).
func (c *state) ensureMaskArena(w, naddrs int) {
	nm := 10 + naddrs
	if cap(c.maskBuf) >= nm*w {
		return
	}
	// Grow at least geometrically: nm*w creeps upward as the search
	// discovers addresses and the graph widens, and without headroom a
	// recycled state re-allocates its arena on every such step.
	need := nm * w
	if d := 2 * cap(c.maskBuf); d > need {
		need = d
		w = need / nm
	}
	c.maskBuf = make(graph.Bits, nm*w)
	slot := func(i int) graph.Bits { return c.maskBuf[i*w : i*w : (i+1)*w] }
	c.dirty, c.memBits, c.readsBits, c.resolvedBits = slot(0), slot(1), slot(2), slot(3)
	c.ancScratch, c.descScratch = slot(4), slot(5)
	c.ruleScratch, c.maskScratch = slot(6), slot(7)
	c.candMask, c.owScratch = slot(8), slot(9)
	for i := 0; i < naddrs && i < len(c.addrs); i++ {
		c.addrs[i].storeBits = slot(10 + i)
	}
}

// fork clones the behavior into a (possibly recycled) state from the
// pool. The program, policy, and options are shared; every mutable
// buffer is copied into the destination's existing storage where capacity
// allows, so a warm pool turns forking into a handful of copy()s.
func (s *state) fork(p *statePool) *state {
	c := p.get()
	if c == nil {
		c = &state{}
	}
	c.prog, c.pol, c.opts = s.prog, s.pol, s.opts
	c.start, c.nregs = s.start, s.nregs
	c.g = s.g.CloneInto(c.g)
	c.nodes = append(c.nodes[:0], s.nodes...)

	if cap(c.threads) < len(s.threads) {
		c.threads = make([]threadState, len(s.threads))
	}
	c.threads = c.threads[:len(s.threads)]
	for i := range s.threads {
		t, ct := &s.threads[i], &c.threads[i]
		ct.pc, ct.blocked, ct.genSeq = t.pc, t.blocked, t.genSeq
		ct.regs = append(ct.regs[:0], t.regs...)
	}

	if cap(c.byThread) < len(s.byThread) {
		c.byThread = make([][]int, len(s.byThread))
	}
	c.byThread = c.byThread[:len(s.byThread)]
	for i := range s.byThread {
		c.byThread[i] = append(c.byThread[i][:0], s.byThread[i]...)
	}

	if cap(c.addrs) < len(s.addrs) {
		grown := make([]addrSet, len(s.addrs))
		copy(grown, c.addrs[:cap(c.addrs)])
		c.addrs = grown
	}
	c.addrs = c.addrs[:len(s.addrs)]
	c.ensureMaskArena(s.g.RowWords(), len(s.addrs))
	for i := range s.addrs {
		sa, ca := &s.addrs[i], &c.addrs[i]
		ca.addr, ca.init = sa.addr, sa.init
		ca.stores = append(ca.stores[:0], sa.stores...)
		ca.loads = append(ca.loads[:0], sa.loads...)
		ca.storeBits = graph.CopyInto(ca.storeBits, sa.storeBits)
	}

	c.aliases = append(c.aliases[:0], s.aliases...)
	c.bypasses = append(c.bypasses[:0], s.bypasses...)
	c.path = append(c.path[:0], s.path...)
	c.epoch = s.epoch
	c.dirty = graph.CopyInto(c.dirty, s.dirty)
	c.memBits = graph.CopyInto(c.memBits, s.memBits)
	c.readsBits = graph.CopyInto(c.readsBits, s.readsBits)
	c.resolvedBits = graph.CopyInto(c.resolvedBits, s.resolvedBits)
	c.eligCache = append(c.eligCache[:0], s.eligCache...)
	c.newRMW = append(c.newRMW[:0], s.newRMW...)
	c.prepValid = false
	return c
}

// clone forks the behavior without pooling (kept for tests and one-shot
// callers).
func (s *state) clone() *state {
	var p statePool
	return s.fork(&p)
}

// regNode returns the node currently bound to a register, or NoNode (an
// unwritten register reads as zero).
func (s *state) regNode(t int, r program.Reg) int {
	if int(r) < 0 || int(r) >= len(s.threads[t].regs) {
		return NoNode
	}
	return int(s.threads[t].regs[r])
}

// generate runs Section 4.1 step 1 for every thread: create unresolved
// nodes from the current PC up to (and including) the first unresolved
// branch, inserting all ≺ edges required by the reordering axioms and, in
// non-speculative mode, the alias-check edges of Section 5.1. Returns
// whether any node was generated.
func (s *state) generate() (bool, error) {
	progress := false
	s.epoch++
	for ti := range s.threads {
		th := &s.threads[ti]
		for th.blocked == NoNode && th.pc < len(s.prog.Threads[ti].Instrs) {
			if len(s.nodes) >= s.opts.MaxNodes {
				return progress, fmt.Errorf("core: %w (%d); unbounded loop?", errNodeBudget, s.opts.MaxNodes)
			}
			if err := s.genOne(ti); err != nil {
				return progress, err
			}
			progress = true
		}
	}
	return progress, nil
}

// threadLabel builds the fallback node label "T<ti>.<seq>" without fmt —
// this runs for every generated node of unlabeled programs (the randprog
// corpus), so it stays off the fmt/reflection path.
func threadLabel(ti, seq int) string {
	var buf [16]byte
	b := append(buf[:0], 'T')
	b = strconv.AppendInt(b, int64(ti), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(seq), 10)
	return string(b)
}

// genOne generates the next instruction of thread ti.
func (s *state) genOne(ti int) error {
	th := &s.threads[ti]
	in := &s.prog.Threads[ti].Instrs[th.pc]
	id := s.g.AddNodes(1)
	n := Node{
		ID: id, Thread: ti, PC: th.pc, Seq: th.genSeq, Kind: in.Kind,
		Label:  in.Label,
		Source: NoNode, addrDep: NoNode, valDep: NoNode, condDep: NoNode,
		instr: in, epoch: s.epoch,
	}
	if n.Label == "" {
		n.Label = threadLabel(ti, th.genSeq)
	}
	th.genSeq++
	th.pc++

	// Dataflow (the "indep" entries of Figure 1): edges from producers.
	switch in.Kind {
	case program.KindLoad, program.KindStore, program.KindAtomic:
		if in.UseAddrReg {
			n.addrDep = s.regNode(ti, in.AddrReg)
		} else {
			n.AddrKnown, n.Addr = true, in.AddrConst
		}
		if in.Kind != program.KindLoad && in.UseValReg {
			n.valDep = s.regNode(ti, in.ValReg)
		}
	case program.KindOp:
		n.argDeps = make([]int, len(in.Args))
		for i, r := range in.Args {
			n.argDeps[i] = s.regNode(ti, r)
		}
	case program.KindBranch:
		n.condDep = s.regNode(ti, in.CondReg)
		th.blocked = id
	}

	s.nodes = append(s.nodes, n)
	nn := &s.nodes[id]
	if nn.IsMemory() {
		s.setNodeMask(&s.memBits, id)
	}
	if nn.Reads() {
		s.setNodeMask(&s.readsBits, id)
	}
	if nn.Kind == program.KindStore && nn.AddrKnown {
		s.noteStore(id, nn.Addr)
	}

	// Register rebinding for value producers.
	if in.Kind == program.KindLoad || in.Kind == program.KindOp || in.Kind == program.KindAtomic {
		th.regs[in.Dest] = int32(id)
	}

	// Structural edges: start barrier and dataflow.
	mustEdge(s.g.AddEdge(s.start, id, graph.EdgeLocal))
	for _, d := range [...]int{nn.addrDep, nn.valDep, nn.condDep} {
		if d != NoNode {
			mustEdge(s.g.AddEdge(d, id, graph.EdgeLocal))
		}
	}
	for _, d := range nn.argDeps {
		if d != NoNode {
			mustEdge(s.g.AddEdge(d, id, graph.EdgeLocal))
		}
	}

	// Reordering-axiom edges against every earlier node of the thread.
	// Partial fences (nonzero FenceMask) opt out of the table's fence
	// cells; their ordering is inserted pairwise below, which keeps a
	// MEMBAR #StoreLoad from transitively ordering, say, loads before
	// stores the way a shared fence node would.
	for _, eid := range s.byThread[ti] {
		e := &s.nodes[eid]
		req := s.pol.Require(e.Kind, nn.Kind)
		if (e.Kind == program.KindFence && e.instr.FenceMask != 0) ||
			(nn.Kind == program.KindFence && nn.instr.FenceMask != 0) {
			req = order.Free
		}
		switch req {
		case order.Always:
			mustEdge(s.g.AddEdge(eid, id, graph.EdgeLocal))
		case order.SameAddr:
			s.requireSameAddr(eid, id)
		case order.Bypass:
			// Resolved at Load Resolution: the pair is ordered
			// unless the load observes this exact store
			// (Section 6). Nothing to insert now.
		}
	}
	if nn.IsMemory() {
		for _, fid := range s.byThread[ti] {
			f := &s.nodes[fid]
			if f.Kind != program.KindFence || f.instr.FenceMask == 0 {
				continue
			}
			for _, eid := range s.byThread[ti] {
				e := &s.nodes[eid]
				if e.Seq >= f.Seq || !e.IsMemory() {
					continue
				}
				if program.MaskOrders(f.instr.FenceMask, e.Kind, nn.Kind) {
					mustEdge(s.g.AddEdge(eid, id, graph.EdgeLocal))
				}
			}
		}
	}
	if nn.Kind == program.KindFence || nn.Kind == program.KindBranch || nn.IsMemory() {
		s.byThread[ti] = append(s.byThread[ti], id)
	}
	return nil
}

// requireSameAddr handles an "x ≠ y" table cell between two same-thread
// memory nodes. With both addresses known the decision is immediate.
// Otherwise the pair is deferred, and — in the non-speculative model — the
// later operation additionally waits for the instruction that produces the
// earlier operation's address (Section 5.1: "every memory operation
// depends upon the instruction which provides the address of each previous
// potentially-aliasing memory operation").
func (s *state) requireSameAddr(earlier, later int) {
	e, l := &s.nodes[earlier], &s.nodes[later]
	if e.AddrKnown && l.AddrKnown {
		if e.Addr == l.Addr {
			mustEdge(s.g.AddEdge(earlier, later, graph.EdgeLocal))
		}
		return
	}
	s.aliases = append(s.aliases, aliasPair{earlier: earlier, later: later})
	if !s.opts.Speculative && e.addrDep != NoNode {
		mustEdge(s.g.AddEdge(e.addrDep, later, graph.EdgeAlias))
	}
}

// resolveAliases decides deferred same-address pairs whose addresses have
// both become known. In speculative mode a newly required edge may
// contradict an early load resolution; the resulting cycle (possibly
// surfaced by the subsequent atomicity closure) discards the behavior —
// the formal analogue of squash-and-retry.
func (s *state) resolveAliases() (bool, error) {
	progress := false
	for i := range s.aliases {
		ap := &s.aliases[i]
		if ap.done {
			continue
		}
		e, l := &s.nodes[ap.earlier], &s.nodes[ap.later]
		if !e.AddrKnown || !l.AddrKnown {
			continue
		}
		ap.done = true
		progress = true
		if e.Addr != l.Addr {
			continue
		}
		if err := s.g.AddEdge(ap.earlier, ap.later, graph.EdgeLocal); err != nil {
			return progress, errInconsistent
		}
	}
	return progress, nil
}

// execute runs Section 4.1 step 2: propagate values dataflow-style until
// only Loads remain executable. Branch resolution unblocks generation and
// resets the thread PC. Returns whether any node changed state.
func (s *state) execute() (bool, error) {
	progress := false
	for {
		changed := false
		for id := range s.nodes {
			n := &s.nodes[id]
			// Address resolution is independent of value
			// resolution and can unlock alias decisions.
			if n.IsMemory() && !n.AddrKnown && n.addrDep != NoNode && s.nodes[n.addrDep].Resolved {
				n.AddrKnown = true
				n.Addr = program.ValueAddr(s.nodes[n.addrDep].Val)
				if s.addrIdx(n.Addr) < 0 {
					s.addInitStore(n.Addr, s.prog.Init[n.Addr], true)
					n = &s.nodes[id] // addInitStore may have grown s.nodes
				}
				if n.Kind == program.KindStore {
					s.noteStore(id, n.Addr)
				}
				s.noteAddrKnown(id)
				changed = true
			}
			// Loads and Atomics resolve only through Load
			// Resolution (Section 4.1 step 3).
			if n.Resolved || n.Reads() {
				continue
			}
			switch n.Kind {
			case program.KindFence:
				n.Resolved = true
				s.noteResolved(id)
				changed = true
			case program.KindOp:
				// The argument buffer is scratch reused across Op
				// evaluations; OpFuncs must not retain it.
				vals := s.opScratch[:0]
				ok := true
				for _, d := range n.argDeps {
					if d == NoNode {
						vals = append(vals, 0)
						continue
					}
					if !s.nodes[d].Resolved {
						ok = false
						break
					}
					vals = append(vals, s.nodes[d].Val)
				}
				s.opScratch = vals
				if ok {
					if n.instr.Fn != nil {
						n.Val = n.instr.Fn(vals)
					}
					n.Resolved = true
					s.noteResolved(id)
					changed = true
				}
			case program.KindBranch:
				v, ok := program.Value(0), true
				if n.condDep != NoNode {
					if !s.nodes[n.condDep].Resolved {
						ok = false
					} else {
						v = s.nodes[n.condDep].Val
					}
				}
				if ok {
					n.Resolved = true
					n.Val = v
					s.noteResolved(id)
					th := &s.threads[n.Thread]
					if th.blocked == n.ID {
						th.blocked = NoNode
						if v != 0 {
							th.pc = n.instr.Target
						}
					}
					changed = true
				}
			case program.KindStore:
				if !n.AddrKnown {
					continue
				}
				if n.valDep == NoNode {
					n.Val = n.instr.ValConst
					n.Resolved = true
					s.noteResolved(id)
					changed = true
				} else if s.nodes[n.valDep].Resolved {
					n.Val = s.nodes[n.valDep].Val
					n.Resolved = true
					s.noteResolved(id)
					changed = true
				}
			}
		}
		ap, err := s.resolveAliases()
		if err != nil {
			return progress, err
		}
		if !changed && !ap {
			return progress, nil
		}
		progress = true
	}
}

// done reports whether the behavior is complete: all threads ran off the
// end of their programs and every node is resolved.
func (s *state) done() bool {
	for ti := range s.threads {
		if s.threads[ti].blocked != NoNode || s.threads[ti].pc < len(s.prog.Threads[ti].Instrs) {
			return false
		}
	}
	for id := range s.nodes {
		if !s.nodes[id].Resolved {
			return false
		}
	}
	return true
}

// signature is the string form of the dedup key of Section 4.1 ("It is
// sufficient to compare the Load-Store graph of each execution"): the
// derived edge set is a deterministic function of the program, the model,
// and the partial source assignment, so the resolved (load → source) map
// plus the node count canonically identifies the Load-Store graph.
//
// The engine dedups on the 64-bit fingerprint below; the string form is
// the collision-free baseline, kept for the dedup property tests and the
// `dedupcheck` build-tag cross-check.
func (s *state) signature() string {
	b := make([]byte, 0, 8*len(s.nodes))
	b = append(b, 'n')
	b = strconv.AppendInt(b, int64(len(s.nodes)), 10)
	b = append(b, '|')
	for id := range s.nodes {
		n := &s.nodes[id]
		if n.Reads() && n.Resolved {
			b = strconv.AppendInt(b, int64(id), 10)
			b = append(b, '<')
			b = strconv.AppendInt(b, int64(n.Source), 10)
			b = append(b, ';')
		}
	}
	return string(b)
}

// fingerprint hashes the Load–Store graph key — node count plus the
// (load, source) pairs in ascending node order — with FNV-1a into 64
// bits. It is the hot dedup key: no per-node formatting, no string
// allocation, map lookups on a uint64.
func (s *state) fingerprint() uint64 {
	return fingerprintNodes(s.nodes)
}

// finish records the state as an Execution that owns exact-size copies of
// its graph, nodes, bypasses and path. No buffer of the state escapes, so
// a finished state goes back to the pool like any other, and a recorded
// behavior pins only what it reports: not the spare capacity of the
// state's slices, nor the slab arenas its copy-on-write graph inherited.
func (s *state) finish() *Execution {
	return &Execution{
		Graph:    s.g.Clone(),
		Nodes:    exactCopy(s.nodes),
		Bypasses: exactCopy(s.bypasses),
		Model:    s.pol.Name(),
		Path:     exactCopy(s.path),
	}
}

// exactCopy returns a copy of x whose capacity is its length, or nil when
// x is empty.
func exactCopy[T any](x []T) []T {
	if len(x) == 0 {
		return nil
	}
	c := make([]T, len(x))
	copy(c, x)
	return c
}
