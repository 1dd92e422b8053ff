package httpx

import (
	"math"
	"net"
	"net/http"
	"sync"
	"time"
)

// RateLimiter is a per-client-IP token bucket for the control planes:
// each IP accrues Rate tokens per second up to Burst, and a request
// costs one token. Requests finding an empty bucket get 429. Liveness
// probes (/healthz) bypass it — see Middleware.
type RateLimiter struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
	sweep   time.Time
	now     func() time.Time // test hook
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter returns a limiter granting rate requests/second with
// bursts of burst; burst <= 0 means ⌈2×rate⌉. A non-positive rate
// disables limiting: the result is nil, whose Allow always reports true
// and whose Middleware returns its handler unwrapped.
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = int(math.Ceil(2 * rate))
	}
	return &RateLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
}

// Allow spends one token from ip's bucket, reporting whether it was
// available.
func (l *RateLimiter) Allow(ip string) bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, ok := l.buckets[ip]
	if !ok {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[ip] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now
	l.prune(now)
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// prune drops buckets idle long enough to have refilled completely; they
// are indistinguishable from fresh ones, so the map stays bounded by the
// set of recently active clients. Called with l.mu held, at most once a
// minute.
func (l *RateLimiter) prune(now time.Time) {
	if now.Sub(l.sweep) < time.Minute {
		return
	}
	l.sweep = now
	full := time.Duration(l.burst / l.rate * float64(time.Second))
	for ip, b := range l.buckets {
		if now.Sub(b.last) > full {
			delete(l.buckets, ip)
		}
	}
}

// Middleware enforces the limit around next, keyed by the request's
// remote IP. /healthz is exempt so schedulers and load balancers can
// probe at any frequency.
func (l *RateLimiter) Middleware(next http.Handler) http.Handler {
	if l == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		ip, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			ip = r.RemoteAddr
		}
		if !l.Allow(ip) {
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		next.ServeHTTP(w, r)
	})
}
