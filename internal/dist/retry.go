package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"storeatomicity/internal/telemetry"
)

// Backoff is the worker-side retry discipline, mirroring the NACK-retry
// shape of internal/coherence/faults.go: capped exponential growth
// (base, 2·base, 4·base, ... up to Cap) with ±50% jitter so a fleet of
// workers retrying a briefly unreachable coordinator does not
// synchronize into thundering herds. Max bounds the attempts; the
// jitter source is seeded, so a chaos run's retry schedule is
// reproducible.
type Backoff struct {
	// Base is the first retry delay (default 50ms).
	Base time.Duration
	// Cap bounds the exponential growth (default 2s).
	Cap time.Duration
	// Max is the attempt budget: Max retries after the initial try
	// (default 5). The attempt that exhausts it returns the last error.
	Max int

	// mu guards rng: a worker's heartbeat goroutine and its lease loop
	// retry through the same Backoff, and a rand.Rand is not safe for
	// concurrent use.
	mu  sync.Mutex
	rng *rand.Rand
}

// NewBackoff builds a seeded backoff policy; zero fields take defaults.
func NewBackoff(base, cap time.Duration, max int, seed int64) *Backoff {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if cap <= 0 {
		cap = 2 * time.Second
	}
	if max <= 0 {
		max = 5
	}
	return &Backoff{Base: base, Cap: cap, Max: max, rng: rand.New(rand.NewSource(seed))}
}

// delay computes the jittered wait before retry attempt n (0-based):
// min(Base<<n, Cap) scaled by a uniform factor in [0.5, 1.5).
func (b *Backoff) delay(attempt int) time.Duration {
	d := b.Base << uint(attempt)
	if d > b.Cap || d <= 0 { // <= 0 guards shift overflow
		d = b.Cap
	}
	b.mu.Lock()
	jitter := b.rng.Float64()
	b.mu.Unlock()
	return time.Duration(float64(d) * (0.5 + jitter))
}

// transientError wraps a retryable failure so callers can distinguish
// "the coordinator is briefly unreachable" from a terminal refusal.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// client is the worker's coordinator stub: every call is POST-JSON with
// the shared retry/backoff discipline. The http.Client is injectable so
// the chaos harness can drop or stall calls at the transport.
type client struct {
	base    string
	hc      *http.Client
	backoff *Backoff
	met     *telemetry.DistMetrics
}

// call POSTs req to path and decodes the response into resp, retrying
// transport errors and 5xx responses with capped exponential backoff +
// jitter. 4xx responses are terminal (the coordinator refused us —
// retrying cannot help). Context cancellation aborts the retry loop
// immediately, including mid-wait.
func (c *client) call(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("dist: marshal %s request: %w", path, err)
	}
	var last error
	for attempt := 0; ; attempt++ {
		if err := c.once(ctx, path, body, resp); err == nil {
			return nil
		} else if _, transient := err.(*transientError); !transient {
			return err
		} else {
			last = err
		}
		if attempt >= c.backoff.Max {
			return fmt.Errorf("dist: %s failed after %d retries: %w", path, c.backoff.Max, last)
		}
		if c.met != nil {
			c.met.Retries.Inc(0)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(c.backoff.delay(attempt)):
		}
	}
}

// once performs a single POST round-trip.
func (c *client) once(ctx context.Context, path string, body []byte, resp any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("dist: build %s request: %w", path, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &transientError{fmt.Errorf("dist: %s: %w", path, err)}
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hresp.Body, 64<<20))
	if err != nil {
		return &transientError{fmt.Errorf("dist: %s: read response: %w", path, err)}
	}
	if hresp.StatusCode >= 500 {
		return &transientError{fmt.Errorf("dist: %s: coordinator says %s: %s", path, hresp.Status, data)}
	}
	if hresp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: %s: coordinator refused: %s: %s", path, hresp.Status, data)
	}
	if resp == nil {
		return nil
	}
	if err := json.Unmarshal(data, resp); err != nil {
		return &transientError{fmt.Errorf("dist: %s: decode response: %w", path, err)}
	}
	return nil
}
