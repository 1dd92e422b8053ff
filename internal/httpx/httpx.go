// Package httpx is the HTTP policy shared by the control planes — the
// study daemon (internal/registry behind tripwire-serve), the distributed
// sweep coordinator (internal/distsweep) and the metrics listener
// (internal/obs) — and by the webhook dispatcher (internal/hook): the
// HMAC body signature, the per-IP token bucket, the {"error": …}
// envelope, bounded strict JSON request decoding, and the http.Server
// timeouts.
package httpx

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// SignatureHeader carries Sign(secret, body) on signed requests: webhook
// deliveries and distributed-sweep control requests.
const SignatureHeader = "X-Tripwire-Signature"

// Sign computes the body signature header value:
// "sha256=" + hex(HMAC-SHA256(secret, body)).
func Sign(secret string, body []byte) string {
	mac := hmac.New(sha256.New, []byte(secret))
	mac.Write(body)
	return "sha256=" + hex.EncodeToString(mac.Sum(nil))
}

// Verify reports whether header is a valid signature of body under
// secret, in constant time.
func Verify(secret string, body []byte, header string) bool {
	return hmac.Equal([]byte(Sign(secret, body)), []byte(header))
}

// WriteJSON renders v as an indented JSON response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError renders the error envelope {"error": msg}.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

// ResponseError turns a failed response's error envelope into an error,
// falling back to the status line when the body carries none.
func ResponseError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e)
	if e.Error == "" {
		e.Error = resp.Status
	}
	return errors.New(e.Error)
}

// DecodeJSON reads r's body as one JSON object into v and reports whether
// the handler may go on. On false it has written the error response:
//
//   - 413 for a body over limit bytes;
//   - 401 when secret is non-empty and the SignatureHeader is not
//     Sign(secret, body), checked over the raw bytes before decoding;
//   - 400 for a malformed body, a field v does not declare, or data
//     after the object.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, secret string, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", limit))
		} else {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		}
		return false
	}
	if secret != "" && !Verify(secret, body, r.Header.Get(SignatureHeader)) {
		WriteError(w, http.StatusUnauthorized, "bad or missing signature")
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err = dec.Decode(v); err == nil {
		if _, next := dec.Token(); next != io.EOF {
			err = errors.New("data after the JSON object")
		}
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// NewServer returns the http.Server for h. A client gets 10 s to send
// its request headers and 2 min between keep-alive requests, so stalled
// or abandoned connections cannot pile up. There is no WriteTimeout:
// tripwire-serve's SSE streams stay open for a study's whole run, and a
// write deadline would cut them off.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
