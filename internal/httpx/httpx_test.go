package httpx

import (
	"testing"
	"time"
)

func TestSignGolden(t *testing.T) {
	// Pinned value: HMAC-SHA256("s3cret", `{"kind":"detection"}`).
	got := Sign("s3cret", []byte(`{"kind":"detection"}`))
	want := "sha256=c7a4c612b990ba3c41c26e6a39b19701e60886c9d5f97be18739fcce834cd16f"
	if got != want {
		t.Fatalf("Sign = %s, want %s", got, want)
	}
	if !Verify("s3cret", []byte(`{"kind":"detection"}`), got) {
		t.Fatal("Verify rejected its own signature")
	}
	if Verify("s3cret", []byte(`{"kind":"detection!"}`), got) {
		t.Fatal("Verify accepted signature of different body")
	}
	if Verify("other", []byte(`{"kind":"detection"}`), got) {
		t.Fatal("Verify accepted signature under wrong secret")
	}
}

// TestRateLimiterUnit exercises the token bucket directly: burst, refill,
// and per-IP isolation.
func TestRateLimiterUnit(t *testing.T) {
	now := time.Unix(0, 0)
	l := NewRateLimiter(1, 2)
	l.now = func() time.Time { return now }

	if !l.Allow("a") || !l.Allow("a") {
		t.Fatal("burst of 2 rejected")
	}
	if l.Allow("a") {
		t.Fatal("third immediate request allowed")
	}
	if !l.Allow("b") {
		t.Fatal("second IP throttled by first IP's spend")
	}
	now = now.Add(1500 * time.Millisecond)
	if !l.Allow("a") {
		t.Fatal("refilled token rejected")
	}
	if l.Allow("a") {
		t.Fatal("over-refill: bucket exceeded burst")
	}
	var nilLimiter *RateLimiter
	if !nilLimiter.Allow("x") {
		t.Fatal("nil limiter must allow")
	}
}

// TestServerTimeouts pins the one timeout policy of tripwire-serve, the
// sweep coordinator and the metrics listener: a bounded header read and
// idle period, and no write deadline, which would cut off SSE streams.
func TestServerTimeouts(t *testing.T) {
	srv := NewServer(nil)
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (SSE streams are long-lived)", srv.WriteTimeout)
	}
}
