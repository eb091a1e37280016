package telemetry

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// StatusSink owns a terminal's single in-place status line;
// obslog.Console implements it, serializing the line with every other
// write to the stream so neither tears the other.
type StatusSink interface {
	SetStatus(string)
	ClearStatus()
}

// Progress renders a live single-line status for a running enumeration:
// behaviors found, states/sec, frontier depth, dedup hit rate, and an
// ETA against whichever budget binds first (the MaxBehaviors state
// budget or a wall-clock deadline). Each refresh replaces the sink's
// status line and Stop clears it, so it never pollutes piped output —
// by convention callers enable it only on a terminal (see IsTerminal).
type Progress struct {
	met      *EnumMetrics
	sink     StatusSink
	budget   int64
	deadline time.Time

	mu       sync.Mutex
	stop     chan struct{}
	done     chan struct{}
	prev     int64
	prevTime time.Time
}

// StartProgress begins redrawing every interval (default 500ms) until
// Stop. Returns nil (a safe no-op) when met is nil.
func StartProgress(sink StatusSink, met *EnumMetrics, budget int, deadline time.Time, interval time.Duration) *Progress {
	if met == nil {
		return nil
	}
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	p := &Progress{
		met: met, sink: sink, budget: int64(budget), deadline: deadline,
		stop: make(chan struct{}), done: make(chan struct{}),
		prevTime: time.Now(),
	}
	go func() {
		defer close(p.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.draw()
			}
		}
	}()
	return p
}

// draw renders one refresh of the status line.
func (p *Progress) draw() {
	now := time.Now()
	explored := p.met.Explored.Value()
	rate := float64(0)
	p.mu.Lock()
	if dt := now.Sub(p.prevTime).Seconds(); dt > 0 {
		rate = float64(explored-p.prev) / dt
	}
	p.prev, p.prevTime = explored, now

	forks := p.met.Forks.Value()
	dedupPct := float64(0)
	if forks > 0 {
		dedupPct = 100 * float64(p.met.DedupHits.Value()) / float64(forks)
	}
	line := fmt.Sprintf("%d behaviors | %d states (%.0f/s) | frontier %d | dedup %.1f%%",
		p.met.Behaviors.Value(), explored, rate, p.met.Frontier.Value(), dedupPct)
	if eta, label := p.eta(explored, rate, now); label != "" {
		line += fmt.Sprintf(" | %s %s", label, eta)
	}
	p.sink.SetStatus(line)
	p.mu.Unlock()
}

// eta estimates time remaining against the binding budget: wall-clock
// deadline when set, otherwise the state budget at the current rate.
func (p *Progress) eta(explored int64, rate float64, now time.Time) (string, string) {
	if !p.deadline.IsZero() {
		left := p.deadline.Sub(now)
		if left < 0 {
			left = 0
		}
		return left.Truncate(time.Second).String(), "deadline in"
	}
	if p.budget > 0 && rate > 0 {
		left := p.budget - explored
		if left < 0 {
			left = 0
		}
		d := time.Duration(float64(left)/rate) * time.Second
		return d.Truncate(time.Second).String(), "budget ETA"
	}
	return "", ""
}

// Stop halts the redraw loop and clears the line. Nil-safe.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	close(p.stop)
	<-p.done
	p.mu.Lock()
	p.sink.ClearStatus()
	p.mu.Unlock()
}

// IsTerminal reports whether f is a character device — the CLI's "auto"
// progress mode shows the live line only on real terminals, keeping CI
// logs and piped output clean.
func IsTerminal(f *os.File) bool {
	st, err := f.Stat()
	if err != nil {
		return false
	}
	return st.Mode()&os.ModeCharDevice != 0
}
