package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"tripwire/internal/obs"
)

// maxSubmitBody caps a POST /studies body. A SubmitRequest is a few hundred
// bytes; the cap keeps a hostile client from making the decoder buffer an
// unbounded body.
const maxSubmitBody = 64 << 10

// Handler builds the control plane's HTTP surface over reg:
//
//	POST /studies               submit (SubmitRequest body) → 201 Info
//	GET  /studies               list → []Info
//	GET  /studies/{id}          status → Info (Status served verbatim)
//	POST /studies/{id}/pause    park at the next epoch boundary → Info
//	POST /studies/{id}/resume   continue from the newest checkpoint → Info
//	POST /studies/{id}/cancel   stop for good → Info
//	GET  /studies/{id}/events   SSE stream with Last-Event-ID replay
//	GET  /hooks                 webhook delivery stats per endpoint
//	GET  /metrics, /metrics.json, /healthz   observability (internal/obs)
//
// Errors are JSON objects {"error": "..."}: 400 for bad input, 404 for
// unknown studies, 409 for illegal lifecycle transitions, 413 for a submit
// body over maxSubmitBody, 429 from the rate limiter. limiter may be nil
// (no limiting).
func Handler(reg *Registry, limiter *RateLimiter) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /studies", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxSubmitBody))
				return
			}
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
			return
		}
		h, err := reg.Submit(req)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrClosed) {
				code = http.StatusServiceUnavailable
			}
			writeError(w, code, err.Error())
			return
		}
		w.Header().Set("Location", "/studies/"+h.ID())
		writeJSON(w, http.StatusCreated, h.Info())
	})

	mux.HandleFunc("GET /studies", func(w http.ResponseWriter, r *http.Request) {
		handles := reg.List()
		infos := make([]Info, len(handles))
		for i, h := range handles {
			infos[i] = h.Info()
		}
		writeJSON(w, http.StatusOK, infos)
	})

	mux.HandleFunc("GET /studies/{id}", func(w http.ResponseWriter, r *http.Request) {
		h, ok := reg.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "no such study")
			return
		}
		writeJSON(w, http.StatusOK, h.Info())
	})

	lifecycle := func(op func(*Handle) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			h, ok := reg.Get(r.PathValue("id"))
			if !ok {
				writeError(w, http.StatusNotFound, "no such study")
				return
			}
			if err := op(h); err != nil {
				var te *TransitionError
				if errors.As(err, &te) {
					writeError(w, http.StatusConflict, err.Error())
				} else {
					writeError(w, http.StatusInternalServerError, err.Error())
				}
				return
			}
			writeJSON(w, http.StatusOK, h.Info())
		}
	}
	mux.HandleFunc("POST /studies/{id}/pause", lifecycle((*Handle).Pause))
	mux.HandleFunc("POST /studies/{id}/resume", lifecycle((*Handle).Resume))
	mux.HandleFunc("POST /studies/{id}/cancel", lifecycle((*Handle).Cancel))

	mux.HandleFunc("GET /studies/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		h, ok := reg.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "no such study")
			return
		}
		serveSSE(w, r, h)
	})

	mux.HandleFunc("GET /hooks", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, reg.HookStats())
	})

	mux.Handle("/metrics", obs.Handler(reg.opts.Metrics))
	mux.Handle("/metrics.json", obs.Handler(reg.opts.Metrics))
	mux.Handle("/healthz", obs.Handler(reg.opts.Metrics))

	return limiter.Middleware(mux)
}

// serveSSE streams a study's events as Server-Sent Events. The id: of
// each frame is the event's sequence number; a reconnecting client sends
// it back as Last-Event-ID (or ?since=N) and receives exactly the events
// it has not seen — the stream replayed from seq+1, which a from-start
// subscriber would see as the same suffix. The stream ends when the
// study reaches a terminal state (its bus closes) or the client leaves.
func serveSSE(w http.ResponseWriter, r *http.Request, h *Handle) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var since uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			since = n
		}
	} else if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad since parameter")
			return
		}
		since = n
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for ev := range h.EventsSince(r.Context(), since) {
		data, err := json.Marshal(ev)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
		flusher.Flush()
	}
}

// writeJSON renders v as the response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders a JSON error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
