package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"storeatomicity/internal/telemetry"
)

// TestBackoffDelayBounds: every delay sits in the jitter envelope
// [0.5·step, 1.5·step) where step = min(Base<<attempt, Cap), and the
// exponential growth saturates at Cap instead of overflowing.
func TestBackoffDelayBounds(t *testing.T) {
	b := NewBackoff(50*time.Millisecond, 2*time.Second, 5, 42)
	for attempt := 0; attempt < 80; attempt++ {
		step := b.Base << uint(attempt)
		if step > b.Cap || step <= 0 {
			step = b.Cap
		}
		d := b.delay(attempt)
		if d < step/2 || d >= step+step/2 {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, step/2, step+step/2)
		}
	}
}

// TestBackoffJitterIsSeeded: the same seed replays the same schedule —
// chaos runs stay reproducible — and different seeds decorrelate the
// fleet.
func TestBackoffJitterIsSeeded(t *testing.T) {
	a1 := NewBackoff(0, 0, 0, 7)
	a2 := NewBackoff(0, 0, 0, 7)
	diff := NewBackoff(0, 0, 0, 8)
	same, varies := true, false
	for i := 0; i < 16; i++ {
		d1, d2 := a1.delay(i), a2.delay(i)
		if d1 != d2 {
			same = false
		}
		if d1 != diff.delay(i) {
			varies = true
		}
	}
	if !same {
		t.Error("equal seeds produced different schedules")
	}
	if !varies {
		t.Error("distinct seeds produced identical schedules")
	}
}

// TestBackoffConcurrentDelay: a worker's heartbeat goroutine and its
// lease loop share one Backoff, so delay must be safe to call from
// several goroutines (run under -race), and together they still draw
// exactly the seeded schedule.
func TestBackoffConcurrentDelay(t *testing.T) {
	const goroutines, calls = 4, 64
	ref := NewBackoff(0, 0, 0, 9)
	want := make([]time.Duration, goroutines*calls)
	for i := range want {
		want[i] = ref.delay(0)
	}
	b := NewBackoff(0, 0, 0, 9)
	got := make([]time.Duration, goroutines*calls)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(part []time.Duration) {
			defer wg.Done()
			for i := range part {
				part[i] = b.delay(0)
			}
		}(got[g*calls : (g+1)*calls])
	}
	wg.Wait()
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatal("concurrent callers drew a different multiset of delays than the seeded schedule")
	}
}

// flakyHandler fails the first n requests with status code, then
// delegates to ok.
func flakyHandler(n int, code int, ok http.HandlerFunc) (http.HandlerFunc, *atomic.Int32) {
	var calls atomic.Int32
	return func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int32(n) {
			http.Error(w, "injected", code)
			return
		}
		ok(w, r)
	}, &calls
}

func okJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, `{"done":true}`)
}

func testClient(base string, maxRetries int) *client {
	return &client{
		base:    base,
		hc:      &http.Client{Timeout: 5 * time.Second},
		backoff: NewBackoff(time.Millisecond, 4*time.Millisecond, maxRetries, 1),
	}
}

// TestClientRetries5xx: server errors are transient — the client keeps
// retrying and succeeds once the coordinator recovers.
func TestClientRetries5xx(t *testing.T) {
	h, calls := flakyHandler(3, http.StatusInternalServerError, okJSON)
	srv := httptest.NewServer(h)
	defer srv.Close()
	var resp HeartbeatResponse
	if err := testClient(srv.URL, 5).call(context.Background(), PathHeartbeat, &HeartbeatRequest{Worker: "w"}, &resp); err != nil {
		t.Fatalf("call after recovery: %v", err)
	}
	if !resp.Done || calls.Load() != 4 {
		t.Fatalf("resp %+v after %d calls, want done after 4", resp, calls.Load())
	}
}

// TestClientRetriesTransportError: a refused connection (the partition
// model) is transient too.
func TestClientRetriesTransportError(t *testing.T) {
	srv := httptest.NewUnstartedServer(http.HandlerFunc(okJSON))
	// A closed port: grab the address, keep it closed for the first
	// attempts by pointing at a server we only start after a beat.
	srv.Start()
	url := srv.URL
	srv.Close()
	var resp HeartbeatResponse
	err := testClient(url, 2).call(context.Background(), PathHeartbeat, &HeartbeatRequest{Worker: "w"}, &resp)
	if err == nil {
		t.Fatal("call to a dead coordinator succeeded")
	}
	if !strings.Contains(err.Error(), "failed after 2 retries") {
		t.Fatalf("transport failure not retried to exhaustion: %v", err)
	}
}

// TestClient4xxTerminal: a refusal (program-hash skew, malformed
// request) must NOT be retried — the retry counter stays at one call.
func TestClient4xxTerminal(t *testing.T) {
	h, calls := flakyHandler(1<<30, http.StatusConflict, okJSON)
	srv := httptest.NewServer(h)
	defer srv.Close()
	err := testClient(srv.URL, 5).call(context.Background(), PathRegister, &RegisterRequest{Worker: "w"}, nil)
	if err == nil {
		t.Fatal("4xx treated as success")
	}
	var te *transientError
	if errors.As(err, &te) {
		t.Fatalf("4xx classified transient: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("4xx retried %d times", calls.Load()-1)
	}
}

// TestClientCancelAbortsRetryWait: cancellation lands immediately even
// while the client sleeps between retries.
func TestClientCancelAbortsRetryWait(t *testing.T) {
	h, _ := flakyHandler(1<<30, http.StatusInternalServerError, okJSON)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c := &client{
		base:    srv.URL,
		hc:      &http.Client{Timeout: 5 * time.Second},
		backoff: NewBackoff(time.Hour, time.Hour, 5, 1), // would sleep forever
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := c.call(ctx, PathHeartbeat, &HeartbeatRequest{Worker: "w"}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — retry wait not interruptible", elapsed)
	}
}

// TestClientRetryMetrics: every retry increments dist_retries_total.
func TestClientRetryMetrics(t *testing.T) {
	h, _ := flakyHandler(2, http.StatusInternalServerError, okJSON)
	srv := httptest.NewServer(h)
	defer srv.Close()
	met := telemetry.NewDistMetrics(telemetry.NewRegistry())
	if met == nil {
		t.Skip("telemetry disabled in this build")
	}
	c := testClient(srv.URL, 5)
	c.met = met
	var resp HeartbeatResponse
	if err := c.call(context.Background(), PathHeartbeat, &HeartbeatRequest{Worker: "w"}, &resp); err != nil {
		t.Fatal(err)
	}
	if got := met.Retries.Value(); got != 2 {
		t.Fatalf("dist_retries_total = %d, want 2", got)
	}
}
