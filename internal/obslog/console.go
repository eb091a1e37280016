package obslog

import (
	"io"
	"strings"
	"sync"
)

// Console multiplexes line-oriented output (journal events, diagnostics)
// with a single redrawn-in-place status line on one terminal stream.
// Before PR 8 the progress line and any concurrent stderr write could
// tear each other mid-line; routing both through a Console serializes
// them: every Write first clears the status line, emits the payload
// whole, and redraws the status underneath it, so NDJSON events stay
// parseable and the live line stays live.
//
// Console is plain synchronization, not instrumentation, and is safe
// for concurrent use.
type Console struct {
	mu      sync.Mutex
	w       io.Writer
	status  string
	lastLen int
}

// NewConsole wraps a terminal-ish writer (typically os.Stderr).
func NewConsole(w io.Writer) *Console {
	return &Console{w: w}
}

// Write emits p as ordinary scrolling output, lifting the status line
// out of the way and redrawing it afterwards. Implements io.Writer so a
// Console can back a Journal or any log writer directly.
func (c *Console) Write(p []byte) (int, error) {
	if c == nil {
		return len(p), nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.eraseLocked()
	n, err := c.w.Write(p)
	if err != nil {
		return n, err
	}
	if len(p) > 0 && p[len(p)-1] != '\n' {
		io.WriteString(c.w, "\n") //nolint:errcheck
	}
	c.redrawLocked()
	return n, err
}

// SetStatus replaces the in-place status line (the telemetry progress
// line calls this through a small interface, keeping the two packages
// decoupled). Nil-safe.
func (c *Console) SetStatus(line string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pad := ""
	if n := c.lastLen - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	io.WriteString(c.w, "\r"+line+pad) //nolint:errcheck
	c.status = line
	c.lastLen = len(line)
}

// ClearStatus erases the status line and forgets it. Nil-safe.
func (c *Console) ClearStatus() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.eraseLocked()
	c.status = ""
	c.lastLen = 0
}

// eraseLocked blanks the rendered status line. Caller holds mu.
func (c *Console) eraseLocked() {
	if c.lastLen > 0 {
		io.WriteString(c.w, "\r"+strings.Repeat(" ", c.lastLen)+"\r") //nolint:errcheck
	}
}

// redrawLocked re-renders the remembered status line. Caller holds mu.
func (c *Console) redrawLocked() {
	if c.status != "" {
		io.WriteString(c.w, "\r"+c.status) //nolint:errcheck
		c.lastLen = len(c.status)
	}
}
