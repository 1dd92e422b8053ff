// Command tripwire-serve is the long-running study daemon: a registry of
// concurrent studies behind an HTTP control plane, with SSE event
// streaming and HMAC-signed webhook delivery.
//
// Configuration is environment-only (twelve-factor style; there are no
// flags):
//
//	TRIPWIRE_SERVE_ADDR        listen address       (default 127.0.0.1:8080)
//	TRIPWIRE_SERVE_MAX_ACTIVE  concurrent studies   (default 2)
//	TRIPWIRE_SERVE_RATE        per-IP requests/sec  (default 20; 0 disables)
//	TRIPWIRE_SERVE_BURST       per-IP burst         (default ⌈2×RATE⌉)
//
// Webhook endpoints are declared the same way, one rule per <NAME>:
//
//	TRIPWIRE_HOOK_<NAME>_URL     destination (required per rule)
//	TRIPWIRE_HOOK_<NAME>_SECRET  HMAC-SHA256 payload signing key
//	TRIPWIRE_HOOK_<NAME>_EVENTS  comma-separated kinds ("*" or empty = all)
//
// The API: POST /studies submits, GET /studies/{id} reports, POST
// /studies/{id}/pause|resume|cancel drives the lifecycle, GET
// /studies/{id}/events streams SSE with Last-Event-ID replay, GET /hooks
// shows delivery stats, and /metrics, /metrics.json, /healthz serve
// observability. A paused study resumes by replaying its configuration
// from the start, so the daemon writes nothing to disk. See DESIGN.md
// "Control plane".
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"tripwire/internal/hook"
	"tripwire/internal/httpx"
	"tripwire/internal/obs"
	"tripwire/internal/registry"
)

// config is everything the environment decides.
type config struct {
	addr      string
	maxActive int
	rate      float64
	burst     int // 0 means ⌈2×rate⌉
	rules     []hook.Rule
}

// parseConfig reads the TRIPWIRE_SERVE_* and TRIPWIRE_HOOK_* variables
// out of an os.Environ-shaped list.
func parseConfig(environ []string) (config, error) {
	cfg := config{
		addr: "127.0.0.1:8080",
		rate: 20,
	}
	get := func(key string) (string, bool) {
		for _, kv := range environ {
			if len(kv) > len(key) && kv[:len(key)] == key && kv[len(key)] == '=' {
				return kv[len(key)+1:], true
			}
		}
		return "", false
	}
	if v, ok := get("TRIPWIRE_SERVE_ADDR"); ok {
		cfg.addr = v
	}
	if v, ok := get("TRIPWIRE_SERVE_MAX_ACTIVE"); ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return cfg, fmt.Errorf("TRIPWIRE_SERVE_MAX_ACTIVE=%q: want a positive integer", v)
		}
		cfg.maxActive = n
	}
	if v, ok := get("TRIPWIRE_SERVE_RATE"); ok {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			return cfg, fmt.Errorf("TRIPWIRE_SERVE_RATE=%q: want a non-negative number", v)
		}
		cfg.rate = f
	}
	if v, ok := get("TRIPWIRE_SERVE_BURST"); ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return cfg, fmt.Errorf("TRIPWIRE_SERVE_BURST=%q: want a positive integer", v)
		}
		cfg.burst = n
	}
	rules, err := hook.RulesFromEnv(environ)
	if err != nil {
		return cfg, err
	}
	cfg.rules = rules
	return cfg, nil
}

// server is the wired daemon; tests build one on a random port and drive
// it over HTTP.
type server struct {
	reg     *registry.Registry
	hooks   *hook.Dispatcher
	metrics *obs.Registry
	http    *http.Server
	ln      net.Listener
}

// newServer binds cfg.addr and wires registry, webhook dispatcher, rate
// limiter, and metrics. The listener is live when newServer returns
// (Addr is final); Serve starts accepting.
func newServer(cfg config) (*server, error) {
	metrics := obs.New()
	requests := metrics.Counter("tripwire_serve_http_requests", "control plane HTTP requests")
	outcomes := metrics.CounterVec("tripwire_serve_hook_outcomes",
		"webhook delivery outcomes", "outcome", "delivered", "retry", "failed", "dropped")
	hooks := hook.NewDispatcher(cfg.rules, hook.Options{
		Observe: func(outcome string) { outcomes.With(outcome).Inc() },
	})
	reg := registry.New(registry.Options{
		MaxActive: cfg.maxActive,
		Metrics:   metrics,
		Hooks:     hooks,
	})
	handler := registry.Handler(reg, httpx.NewRateLimiter(cfg.rate, cfg.burst))
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		reg.Close()
		hooks.Close()
		return nil, fmt.Errorf("listen %s: %w", cfg.addr, err)
	}
	return &server{
		reg:     reg,
		hooks:   hooks,
		metrics: metrics,
		ln:      ln,
		http: httpx.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Inc()
			handler.ServeHTTP(w, r)
		})),
	}, nil
}

// Addr returns the bound listen address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// Serve blocks accepting connections until Shutdown.
func (s *server) Serve() error {
	err := s.http.Serve(s.ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains HTTP, cancels live studies, and stops the webhook
// dispatcher, in that order — the registry's cancellation events are the
// last chance for webhooks to fire.
func (s *server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	s.reg.Close()
	s.hooks.Close()
	return err
}

func main() {
	cfg, err := parseConfig(os.Environ())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tripwire-serve:", err)
		os.Exit(2)
	}
	srv, err := newServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tripwire-serve:", err)
		os.Exit(1)
	}
	fmt.Printf("tripwire-serve: listening on %s (%d hook rules)\n", srv.Addr(), len(cfg.rules))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	select {
	case <-ctx.Done():
		fmt.Println("tripwire-serve: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "tripwire-serve: shutdown:", err)
			os.Exit(1)
		}
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "tripwire-serve:", err)
			os.Exit(1)
		}
	}
}
