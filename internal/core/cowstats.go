package core

import "storeatomicity/internal/graph"

// cowFams collects the distinct COW family counters an engine run
// touches. Forks join their parent's family, so families only appear
// where root states are built: the fresh root, checkpoint replays, and
// orbit-expansion replays. Engines fold the totals into Stats and the
// telemetry registry at end of run (graph layering keeps internal/graph
// itself free of telemetry imports). The set is keyed by pointer, so
// adding a family costs O(1) however many replays a run makes.
type cowFams struct {
	fams map[*graph.CowCounters]struct{}
}

func (c *cowFams) add(g *graph.Graph) {
	if f := g.CowCounters(); f != nil {
		c.put(f)
	}
}

func (c *cowFams) put(f *graph.CowCounters) {
	if c.fams == nil {
		c.fams = map[*graph.CowCounters]struct{}{}
	}
	c.fams[f] = struct{}{}
}

// merge folds another collector's families into this one. The engine
// gives each worker a private collector (add is not safe for concurrent
// use — frontier revivals create families on worker goroutines) and
// merges them after the workers join.
func (c *cowFams) merge(o *cowFams) {
	for f := range o.fams {
		c.put(f)
	}
}

func (c *cowFams) totals() (shared, copied, slab int64) {
	for f := range c.fams {
		shared += f.RowsShared.Load()
		copied += f.RowsCopied.Load()
		slab += f.SlabBytes.Load()
	}
	return
}
