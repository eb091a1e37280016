package core

// Path-compressed frontier: beyond a configurable resident window, queued
// states are demoted to their replay paths — delta-compressed with the
// checkpoint pathBlock codec — and their graphs and arenas recycled into
// the state pool immediately. A demoted entry is re-materialized by
// deterministic path replay when it is popped (or stolen), so resident
// memory is O(window) instead of O(frontier) while the exploration order,
// and therefore the behavior set, is bit-identical to the undemoted
// engine: demotion always takes the oldest resident entry, revival always
// the newest demoted one, so the logical LIFO stack
// [demoted… | resident…] pops in exactly the order a plain slice would.

// demoteBlock is the delta-compression batch: the oldest demoteBlock
// pending paths are folded into one self-contained pathBlock run when the
// uncompressed tail reaches twice that size (hysteresis, so a pop-push
// boundary does not thrash the codec).
const demoteBlock = 32

// demotedStack holds the demoted (bottom) portion of one frontier in
// logical stack order: index 0 is the oldest entry. The newest entries
// live uncompressed in tail, the middle in compressed blocks, and the
// oldest — once a thief or drain has cracked a block open — expanded in
// front. Head indices make both ends O(1) amortized: the engine revives
// from the top (popNewest), work-stealing takes from the bottom
// (takeOldest).
type demotedStack struct {
	front  [][]PathStep // expanded oldest entries
	fhead  int
	blocks [][]pathBlock // compressed middle, oldest first
	bhead  int
	tail   [][]PathStep // newest entries, not yet compressed
	thead  int
}

func (d *demotedStack) count() int {
	return (len(d.front) - d.fhead) +
		demoteBlock*(len(d.blocks)-d.bhead) +
		(len(d.tail) - d.thead)
}

// push demotes the newest entry onto the top of the stack. path must be a
// private copy (the caller's state is about to be recycled).
func (d *demotedStack) push(path []PathStep) {
	d.tail = append(d.tail, path)
	if len(d.tail)-d.thead >= 2*demoteBlock {
		live := d.tail[d.thead:]
		d.blocks = append(d.blocks, compressFrontier(live[:demoteBlock]))
		n := copy(d.tail, live[demoteBlock:])
		for i := n; i < len(d.tail); i++ {
			d.tail[i] = nil
		}
		d.tail = d.tail[:n]
		d.thead = 0
	}
}

// expandBlock decodes a block the stack itself encoded; corruption here
// is an engine bug, not an input condition.
func expandBlock(b []pathBlock) [][]PathStep {
	paths, err := expandFrontier(b)
	if err != nil {
		panic("core: demoted frontier block corrupt: " + err.Error())
	}
	return paths
}

// popNewest removes and returns the top (newest) entry.
func (d *demotedStack) popNewest() ([]PathStep, bool) {
	if d.count() == 0 {
		return nil, false
	}
	var p []PathStep
	switch {
	case len(d.tail) > d.thead:
		p = d.tail[len(d.tail)-1]
		d.tail[len(d.tail)-1] = nil
		d.tail = d.tail[:len(d.tail)-1]
	case len(d.blocks) > d.bhead:
		paths := expandBlock(d.blocks[len(d.blocks)-1])
		d.blocks[len(d.blocks)-1] = nil
		d.blocks = d.blocks[:len(d.blocks)-1]
		d.tail, d.thead = paths, 0
		p = d.tail[len(d.tail)-1]
		d.tail[len(d.tail)-1] = nil
		d.tail = d.tail[:len(d.tail)-1]
	default:
		p = d.front[len(d.front)-1]
		d.front[len(d.front)-1] = nil
		d.front = d.front[:len(d.front)-1]
	}
	d.normalize()
	return p, true
}

// takeOldest removes and returns the bottom (oldest) entry — the
// work-stealing side, mirroring takeOldestLocked on resident deques.
func (d *demotedStack) takeOldest() ([]PathStep, bool) {
	if d.count() == 0 {
		return nil, false
	}
	var p []PathStep
	switch {
	case len(d.front) > d.fhead:
		p = d.front[d.fhead]
		d.front[d.fhead] = nil
		d.fhead++
	case len(d.blocks) > d.bhead:
		d.front = expandBlock(d.blocks[d.bhead])
		d.blocks[d.bhead] = nil
		d.bhead++
		p = d.front[0]
		d.front[0] = nil
		d.fhead = 1
	default:
		p = d.tail[d.thead]
		d.tail[d.thead] = nil
		d.thead++
	}
	d.normalize()
	return p, true
}

// normalize resets all cursors once the stack drains, so head indices do
// not pin consumed backing arrays forever.
func (d *demotedStack) normalize() {
	if d.count() != 0 {
		return
	}
	d.front, d.fhead = d.front[:0], 0
	d.blocks, d.bhead = d.blocks[:0], 0
	d.tail, d.thead = d.tail[:0], 0
}

// appendPaths appends every demoted path in logical (oldest-first) order —
// the checkpoint/halt frontier emitter. Demoted entries are emitted
// directly from their stored paths; no replay happens.
func (d *demotedStack) appendPaths(dst [][]PathStep) [][]PathStep {
	dst = append(dst, d.front[d.fhead:]...)
	for i := d.bhead; i < len(d.blocks); i++ {
		dst = append(dst, expandBlock(d.blocks[i])...)
	}
	dst = append(dst, d.tail[d.thead:]...)
	return dst
}

// autoFrontierBudget is the default resident window
// (Options.FrontierResidentBytes < 0): 1024 states at the pool's
// per-state resident ceiling. Far above any frontier the test corpus
// reaches, so demotion engages only when explicitly budgeted or on
// genuinely deep searches.
func autoFrontierBudget(maxNodes int) int64 {
	return 1024 * stateLimitFor(maxNodes)
}
