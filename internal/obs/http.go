package obs

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"tripwire/internal/httpx"
)

// Handler serves the registry over HTTP:
//
//	/metrics       Prometheus text exposition format
//	/metrics.json  indented JSON snapshot
//	/healthz       200 ok (liveness for schedulers)
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Serve starts a metrics listener on addr (e.g. ":9200" or
// "127.0.0.1:0"). It returns the bound address and a shutdown function.
// The server runs on a background goroutine; serving errors after shutdown
// are discarded.
func Serve(addr string, r *Registry) (boundAddr string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	srv := newServer(r)
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}

// newServer is the metrics listener's server: r's handler under the shared
// httpx timeouts.
func newServer(r *Registry) *http.Server {
	return httpx.NewServer(Handler(r))
}

// WriteFile dumps the registry to path: Prometheus text for *.prom paths,
// JSON otherwise. "-" writes the Prometheus text to stdout. This is the
// -metrics-out exit dump.
func WriteFile(path string, r *Registry) error {
	if path == "-" {
		return r.WriteProm(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".prom") {
		err = r.WriteProm(f)
	} else {
		err = r.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
