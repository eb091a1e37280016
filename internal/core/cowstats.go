package core

import "storeatomicity/internal/graph"

// cowFams collects the distinct COW family counters an engine run
// touches. Forks join their parent's family, so families only appear
// where root states are built: the fresh root, checkpoint replays, and
// orbit-expansion replays. Engines fold the totals into Stats and the
// telemetry registry at end of run (graph layering keeps internal/graph
// itself free of telemetry imports).
type cowFams struct{ fams []*graph.CowCounters }

func (c *cowFams) add(g *graph.Graph) {
	f := g.CowCounters()
	if f == nil {
		return
	}
	for _, x := range c.fams {
		if x == f {
			return
		}
	}
	c.fams = append(c.fams, f)
}

// merge folds another collector's families into this one, pointer-
// deduplicated. The engine gives each worker a private collector
// (add is not safe for concurrent use — frontier revivals create families
// on worker goroutines) and merges them after the workers join.
func (c *cowFams) merge(o *cowFams) {
	for _, f := range o.fams {
		dup := false
		for _, x := range c.fams {
			if x == f {
				dup = true
				break
			}
		}
		if !dup {
			c.fams = append(c.fams, f)
		}
	}
}

func (c *cowFams) totals() (shared, copied, slab int64) {
	for _, f := range c.fams {
		shared += f.RowsShared.Load()
		copied += f.RowsCopied.Load()
		slab += f.SlabBytes.Load()
	}
	return
}
