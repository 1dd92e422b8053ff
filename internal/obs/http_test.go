package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func httpTestRegistry() *Registry {
	r := New()
	r.Counter("tw_http_test_total", "test counter").Add(7)
	r.Gauge("tw_http_test_gauge", "test gauge").Set(3)
	return r
}

func TestHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler(httpTestRegistry()))
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type %q lacks exposition version", ctype)
	}
	if !strings.Contains(body, "tw_http_test_total 7") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	body, ctype = get("/metrics.json")
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("/metrics.json content type %q", ctype)
	}
	if !strings.Contains(body, `"tw_http_test_gauge": 3`) {
		t.Errorf("/metrics.json missing gauge:\n%s", body)
	}

	if body, _ = get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %q", body)
	}
}

func TestServeBindsAndShutsDown(t *testing.T) {
	addr, shutdown, err := Serve("127.0.0.1:0", httpTestRegistry())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET live server: %v", err)
	}
	resp.Body.Close()
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still reachable after shutdown")
	}
}

// TestServeTimeouts pins the metrics listener's timeouts to those of
// tripwire-serve: a bounded header read and idle period, no write limit.
func TestServeTimeouts(t *testing.T) {
	srv := newServer(httpTestRegistry())
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0", srv.WriteTimeout)
	}
}

func TestWriteFileFormats(t *testing.T) {
	dir := t.TempDir()
	r := httpTestRegistry()

	prom := filepath.Join(dir, "m.prom")
	if err := WriteFile(prom, r); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(prom)
	if !strings.Contains(string(data), "# TYPE tw_http_test_total counter") {
		t.Errorf(".prom file is not Prometheus text:\n%s", data)
	}

	js := filepath.Join(dir, "m.json")
	if err := WriteFile(js, r); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(js)
	if !strings.HasPrefix(strings.TrimSpace(string(data)), "{") {
		t.Errorf("non-.prom file is not JSON:\n%s", data)
	}
}
