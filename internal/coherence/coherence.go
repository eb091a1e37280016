// Package coherence implements an ownership-based MSI cache-coherence
// protocol over a snooping bus. Section 4.2 of the paper argues that such
// a protocol is a *conservative approximation* of Store Atomicity: the
// movement of line ownership defines a per-location total order of stores,
// a store invalidates cached copies (ordering it after their readers), and
// a load obtains its data from the current owner (ordering it after the
// owner's store). The machine package builds out-of-order cores on top of
// this protocol, and the cross-validation experiment (E10 in DESIGN.md)
// checks that every hardware-ish execution falls inside the behavior set
// enumerated by the model.
//
// Values are tagged with the label of the store that produced them, so a
// simulated execution knows source(L) exactly — the same device TSOtool
// uses (unique store values), made explicit.
package coherence

import (
	"fmt"

	"storeatomicity/internal/program"
	"storeatomicity/internal/telemetry"
)

// LineState is the MSI state of a cached line.
type LineState uint8

const (
	// Invalid: the cache holds no copy.
	Invalid LineState = iota
	// Shared: a read-only copy; other caches may also hold one.
	Shared
	// Modified: the exclusive, dirty, owning copy.
	Modified
)

// String implements fmt.Stringer.
func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// Datum is a tagged memory value: the value plus the label of the store
// that wrote it ("init:<addr>" for initial contents).
type Datum struct {
	Value program.Value
	Store string
}

// Stats counts protocol activity.
type Stats struct {
	ReadHits      int
	ReadMisses    int
	WriteHits     int // writes that already held M
	WriteUpgrades int // S → M transitions
	WriteMisses   int // I → M transitions
	Invalidations int // copies killed by remote writes
	Writebacks    int // M copies flushed to memory on remote reads
	BusOps        int
	// Faults counts injected bus faults; all-zero unless EnableFaults
	// was called (see faults.go).
	Faults FaultStats
}

// line is one cached address.
type line struct {
	state LineState
	data  Datum
}

// cache is one core's private cache. Capacity is unbounded: the protocol,
// not replacement policy, is the object of study.
type cache struct {
	lines map[program.Addr]*line
}

func (c *cache) line(a program.Addr) *line {
	l := c.lines[a]
	if l == nil {
		l = &line{}
		c.lines[a] = l
	}
	return l
}

// System is a bus-connected set of caches over a single memory. All
// methods are deterministic; the machine package provides the scheduling
// nondeterminism.
type System struct {
	caches []*cache
	mem    map[program.Addr]Datum
	stats  Stats
	faults *injector // nil unless EnableFaults was called
	// met mirrors protocol events into live telemetry counters (nil = no
	// telemetry; the Stats struct is always maintained regardless).
	met *telemetry.MachineMetrics
}

// SetTelemetry attaches live metric counters: every bus transaction,
// hit/miss, invalidation, writeback, and injected fault increments the
// bundle as it happens, so a long seed sweep is observable mid-flight.
// Safe to call before or after EnableFaults; nil detaches.
func (s *System) SetTelemetry(met *telemetry.MachineMetrics) {
	s.met = met
	if s.faults != nil {
		s.faults.met = met
	}
}

// NewSystem builds a system with n caches. Initial memory contents are
// tagged "init:<addr>"; addresses absent from init read as zero with the
// same tag.
func NewSystem(n int, init map[program.Addr]program.Value) *System {
	s := &System{mem: map[program.Addr]Datum{}}
	for a, v := range init {
		s.mem[a] = Datum{Value: v, Store: InitLabel(a)}
	}
	for i := 0; i < n; i++ {
		s.caches = append(s.caches, &cache{lines: map[program.Addr]*line{}})
	}
	return s
}

// InitLabel is the store tag of address a's initial contents; it matches
// the labels the enumeration engine gives initializing stores.
func InitLabel(a program.Addr) string { return fmt.Sprintf("init:%d", a) }

// Stats returns a copy of the protocol counters.
func (s *System) Stats() Stats {
	st := s.stats
	if s.faults != nil {
		st.Faults = s.faults.stats
	}
	return st
}

// memDatum reads memory, synthesizing a zero-value datum for untouched
// addresses.
func (s *System) memDatum(a program.Addr) Datum {
	if d, ok := s.mem[a]; ok {
		return d
	}
	return Datum{Value: 0, Store: InitLabel(a)}
}

// Read performs a load by core against address a: a hit is served from
// the local S or M copy; a miss raises a bus read, which flushes a remote
// M copy (writeback) and installs a shared copy. The returned datum names
// the observed store.
func (s *System) Read(core int, a program.Addr) Datum {
	l := s.caches[core].line(a)
	if l.state != Invalid {
		s.stats.ReadHits++
		if s.met != nil {
			s.met.ReadHits.Inc(core)
		}
		return l.data
	}
	s.stats.ReadMisses++
	s.stats.BusOps++
	if s.met != nil {
		s.met.ReadMisses.Inc(core)
		s.met.BusOps.Inc(core)
	}
	// Snoop: the owner, if any, writes back and downgrades to Shared.
	for i, c := range s.caches {
		if i == core {
			continue
		}
		rl := c.lines[a]
		if rl != nil && rl.state == Modified {
			s.mem[a] = rl.data
			rl.state = Shared
			s.stats.Writebacks++
			if s.met != nil {
				s.met.Writebacks.Inc(core)
			}
			break
		}
	}
	l.state = Shared
	l.data = s.memDatum(a)
	return l.data
}

// Write performs a store by core: ownership is acquired (invalidating all
// remote copies, after flushing a remote M copy) and the line becomes
// Modified with the new tagged value. Acquiring ownership is what orders
// this store after the previous owner's store and after all readers of
// the dying copies — the conservative Store Atomicity edges of Section
// 4.2.
func (s *System) Write(core int, a program.Addr, v program.Value, storeLabel string) {
	l := s.caches[core].line(a)
	if l.state != Modified {
		s.stats.BusOps++
		if s.met != nil {
			s.met.BusOps.Inc(core)
		}
		if l.state == Shared {
			s.stats.WriteUpgrades++
		} else {
			s.stats.WriteMisses++
		}
		for i, c := range s.caches {
			if i == core {
				continue
			}
			rl := c.lines[a]
			if rl == nil || rl.state == Invalid {
				continue
			}
			if rl.state == Modified {
				s.mem[a] = rl.data
				s.stats.Writebacks++
				if s.met != nil {
					s.met.Writebacks.Inc(core)
				}
			}
			rl.state = Invalid
			s.stats.Invalidations++
			if s.met != nil {
				s.met.Invalidations.Inc(core)
			}
		}
	} else {
		s.stats.WriteHits++
	}
	l.state = Modified
	l.data = Datum{Value: v, Store: storeLabel}
}

// Flush writes all Modified lines back to memory; used at end of
// simulation so final memory state is inspectable.
func (s *System) Flush() {
	for _, c := range s.caches {
		for a, l := range c.lines {
			if l.state == Modified {
				s.mem[a] = l.data
				l.state = Shared
				s.stats.Writebacks++
				if s.met != nil {
					s.met.Writebacks.Inc(0)
				}
			}
		}
	}
}

// Memory returns the datum currently visible at address a from memory's
// point of view (call Flush first for a coherent picture).
func (s *System) Memory(a program.Addr) Datum { return s.memDatum(a) }

// State reports core's MSI state for address a.
func (s *System) State(core int, a program.Addr) LineState {
	l := s.caches[core].lines[a]
	if l == nil {
		return Invalid
	}
	return l.state
}
