package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tripwire/internal/hook"
	"tripwire/internal/httpx"
)

func TestParseConfig(t *testing.T) {
	cfg, err := parseConfig([]string{
		"TRIPWIRE_SERVE_ADDR=127.0.0.1:0",
		"TRIPWIRE_SERVE_MAX_ACTIVE=3",
		"TRIPWIRE_SERVE_RATE=0",
		"TRIPWIRE_HOOK_LAB_URL=http://lab.example/x",
		"TRIPWIRE_HOOK_LAB_SECRET=k",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "127.0.0.1:0" || cfg.maxActive != 3 || cfg.rate != 0 || len(cfg.rules) != 1 {
		t.Fatalf("cfg = %+v", cfg)
	}
	for _, bad := range [][]string{
		{"TRIPWIRE_SERVE_MAX_ACTIVE=zero"},
		{"TRIPWIRE_SERVE_RATE=-1"},
		{"TRIPWIRE_SERVE_BURST=0"},
		{"TRIPWIRE_HOOK_X_SECRET=orphaned"},
	} {
		if _, err := parseConfig(bad); err == nil {
			t.Errorf("parseConfig(%v) accepted", bad)
		}
	}
}

// TestServeSmoke is the CI serve gate: boot the daemon on a random port,
// submit a demo study, pause and resume it over HTTP, and require one
// SSE detection event and one HMAC-verified webhook delivery before the
// study completes.
func TestServeSmoke(t *testing.T) {
	const secret = "smoke-secret"
	type delivery struct {
		kind string
		body []byte
		sig  string
	}
	deliveries := make(chan delivery, 64)
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		deliveries <- delivery{
			kind: r.Header.Get("X-Tripwire-Event"),
			body: body,
			sig:  r.Header.Get("X-Tripwire-Signature"),
		}
	}))
	defer sink.Close()

	cfg, err := parseConfig([]string{
		"TRIPWIRE_SERVE_ADDR=127.0.0.1:0",
		"TRIPWIRE_SERVE_RATE=0", // the test hammers the API; no throttling
		"TRIPWIRE_HOOK_SMOKE_URL=" + sink.URL,
		"TRIPWIRE_HOOK_SMOKE_SECRET=" + secret,
		"TRIPWIRE_HOOK_SMOKE_EVENTS=detection,study.done",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	base := "http://" + srv.Addr()

	post := func(path string, body []byte) (*http.Response, map[string]json.RawMessage) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]json.RawMessage
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return resp, m
	}

	resp, created := post("/studies", []byte(`{"scale":"demo","label":"smoke"}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /studies = %d (%v)", resp.StatusCode, created)
	}
	var id string
	_ = json.Unmarshal(created["id"], &id)
	if id == "" {
		t.Fatalf("no id in %v", created)
	}

	// SSE: follow the stream live; pause after the first wave, resume, and
	// keep reading the same connection's replacement until done.
	sse, err := http.Get(base + "/studies/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sse.Body.Close()
	if ct := sse.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}

	var sawDetection, paused bool
	scanner := bufio.NewScanner(sse.Body)
	var kind string
	deadline := time.After(120 * time.Second)
	events := make(chan string, 256)
	go func() {
		defer close(events)
		for scanner.Scan() {
			line := scanner.Text()
			if strings.HasPrefix(line, "event: ") {
				events <- strings.TrimPrefix(line, "event: ")
			}
		}
	}()
stream:
	for {
		select {
		case k, ok := <-events:
			if !ok {
				break stream
			}
			kind = k
			if kind == "detection" {
				sawDetection = true
			}
			if kind == "wave" && !paused {
				paused = true
				if resp, info := post("/studies/"+id+"/pause", nil); resp.StatusCode != http.StatusOK {
					t.Fatalf("pause = %d (%v)", resp.StatusCode, info)
				}
				if resp, info := post("/studies/"+id+"/resume", nil); resp.StatusCode != http.StatusOK {
					t.Fatalf("resume = %d (%v)", resp.StatusCode, info)
				}
			}
			if kind == "study.done" {
				break stream
			}
		case <-deadline:
			t.Fatalf("study did not finish (last event %q, paused=%v)", kind, paused)
		}
	}
	if !paused {
		t.Fatal("never saw a wave event to pause at")
	}
	if !sawDetection {
		t.Fatal("no SSE detection event before completion")
	}

	// Final status over HTTP.
	resp2, err := http.Get(base + "/studies/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		State  string `json:"state"`
		Status struct {
			Phase      string `json:"phase"`
			Detections int    `json:"detections"`
		} `json:"status"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if info.State != "done" || info.Status.Phase != "done" || info.Status.Detections == 0 {
		t.Fatalf("final info = %+v", info)
	}

	// A signed webhook delivery must have arrived (the sink only gets
	// detection and study.done kinds, both emitted by now).
	select {
	case d := <-deliveries:
		if d.kind != "detection" && d.kind != "study.done" {
			t.Fatalf("unexpected webhook kind %q", d.kind)
		}
		if !httpx.Verify(secret, d.body, d.sig) {
			t.Fatalf("webhook signature %q does not verify", d.sig)
		}
		var ev struct {
			Study string `json:"study"`
			Kind  string `json:"kind"`
		}
		if err := json.Unmarshal(d.body, &ev); err != nil || ev.Study != id || ev.Kind != d.kind {
			t.Fatalf("webhook payload %s (err %v)", d.body, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no webhook delivery arrived")
	}

	// Delivery stats visible on the control plane.
	resp3, err := http.Get(base + "/hooks")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]hook.EndpointStats
	if err := json.NewDecoder(resp3.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if stats["SMOKE"].Delivered == 0 {
		t.Fatalf("hook stats = %+v", stats)
	}

	// Metrics endpoint carries the serve counters.
	resp4, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp4.Body)
	resp4.Body.Close()
	for _, name := range []string{"tripwire_serve_http_requests", "tripwire_serve_studies_submitted", "tripwire_serve_events_published", "tripwire_serve_hook_outcomes"} {
		if !bytes.Contains(prom, []byte(name)) {
			t.Fatalf("/metrics missing %s:\n%s", name, prom)
		}
	}
}

// TestServeRateLimit: an aggressive client gets 429 while /healthz stays
// exempt.
func TestServeRateLimit(t *testing.T) {
	cfg, err := parseConfig([]string{
		"TRIPWIRE_SERVE_ADDR=127.0.0.1:0",
		"TRIPWIRE_SERVE_RATE=1",
		"TRIPWIRE_SERVE_BURST=2",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	base := "http://" + srv.Addr()

	throttled := false
	for i := 0; i < 10; i++ {
		resp, err := http.Get(base + "/studies")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			throttled = true
			break
		}
	}
	if !throttled {
		t.Fatal("burst of 10 requests against rate=1 burst=2 never throttled")
	}
	for i := 0; i < 5; i++ {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz throttled: %d", resp.StatusCode)
		}
	}
}

// TestServerTimeouts: the daemon bounds header reads and idle keep-alive
// connections, and sets no write deadline, which would cut off SSE
// streams.
func TestServerTimeouts(t *testing.T) {
	cfg, err := parseConfig([]string{
		"TRIPWIRE_SERVE_ADDR=127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.ln.Close()
		_ = srv.Shutdown(context.Background())
	}()
	if srv.http.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", srv.http.ReadHeaderTimeout)
	}
	if srv.http.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", srv.http.IdleTimeout)
	}
	if srv.http.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (SSE streams are long-lived)", srv.http.WriteTimeout)
	}
}

// TestBurstDefaultFollowsRate: without TRIPWIRE_SERVE_BURST the per-IP
// burst is ⌈2×RATE⌉ — 40 at the default rate of 20, 200 at RATE=100 —
// and an explicit burst wins.
func TestBurstDefaultFollowsRate(t *testing.T) {
	for _, tc := range []struct {
		environ []string
		burst   int
	}{
		{nil, 40},
		{[]string{"TRIPWIRE_SERVE_RATE=100"}, 200},
		{[]string{"TRIPWIRE_SERVE_RATE=100", "TRIPWIRE_SERVE_BURST=7"}, 7},
	} {
		cfg, err := parseConfig(tc.environ)
		if err != nil {
			t.Fatal(err)
		}
		limiter := httpx.NewRateLimiter(cfg.rate, cfg.burst)
		start := time.Now()
		allowed := 0
		for i := 0; i < 2*tc.burst+10; i++ {
			if limiter.Allow("client") {
				allowed++
			}
		}
		// The bucket refills at the rate while the loop runs.
		refill := int(time.Since(start).Seconds() * cfg.rate)
		if allowed < tc.burst || allowed > tc.burst+refill {
			t.Errorf("%v: %d back-to-back requests allowed, want a burst of %d", tc.environ, allowed, tc.burst)
		}
	}
}
