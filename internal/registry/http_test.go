package registry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer wires a registry into an httptest server (no rate limit).
func newTestServer(t *testing.T) (*Registry, *httptest.Server) {
	t.Helper()
	reg := newTestRegistry(t, Options{MaxActive: 4})
	srv := httptest.NewServer(Handler(reg, nil))
	t.Cleanup(srv.Close)
	return reg, srv
}

func postJSON(t *testing.T, url string, body string) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	_ = json.NewDecoder(resp.Body).Decode(&m)
	return resp, m
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	_ = json.NewDecoder(resp.Body).Decode(&m)
	return resp, m
}

func studyID(t *testing.T, m map[string]json.RawMessage) string {
	t.Helper()
	var id string
	if err := json.Unmarshal(m["id"], &id); err != nil || id == "" {
		t.Fatalf("no study id in %v", m)
	}
	return id
}

// TestHTTPPauseResumeStatusByteIdentity is the PR's acceptance pin: a
// study paused through the HTTP API and resumed must serve a final
// GET /studies/{id} "status" document byte-identical to an uninterrupted
// run's, at 1, 2, 4, and 8 workers (one shared baseline — the status is
// worker-invariant by the determinism contract).
func TestHTTPPauseResumeStatusByteIdentity(t *testing.T) {
	reg, srv := newTestServer(t)

	resp, m := postJSON(t, srv.URL+"/studies", `{"scale":"demo"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d (%v)", resp.StatusCode, m)
	}
	baseID := studyID(t, m)
	baseH, _ := reg.Get(baseID)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if st, err := baseH.Wait(ctx); st != Done || err != nil {
		t.Fatalf("baseline ended %s, %v", st, err)
	}
	_, m = getJSON(t, srv.URL+"/studies/"+baseID)
	baseline := m["status"]
	if len(baseline) == 0 {
		t.Fatal("baseline status missing")
	}

	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			body := fmt.Sprintf(`{"scale":"demo","workers":%d}`, workers)
			resp, m := postJSON(t, srv.URL+"/studies", body)
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("submit = %d (%v)", resp.StatusCode, m)
			}
			id := studyID(t, m)
			h, _ := reg.Get(id)

			waitKind(t, h, 0, KindWave)
			if resp, m := postJSON(t, srv.URL+"/studies/"+id+"/pause", ""); resp.StatusCode != http.StatusOK {
				t.Fatalf("pause = %d (%v)", resp.StatusCode, m)
			}
			_, m = getJSON(t, srv.URL+"/studies/"+id)
			var state string
			_ = json.Unmarshal(m["state"], &state)
			if state != "paused" {
				t.Fatalf("state after pause = %q", state)
			}
			if resp, m := postJSON(t, srv.URL+"/studies/"+id+"/resume", ""); resp.StatusCode != http.StatusOK {
				t.Fatalf("resume = %d (%v)", resp.StatusCode, m)
			}
			if st, err := h.Wait(ctx); st != Done || err != nil {
				t.Fatalf("resumed study ended %s, %v", st, err)
			}
			_, m = getJSON(t, srv.URL+"/studies/"+id)
			if !bytes.Equal(m["status"], baseline) {
				t.Fatalf("paused+resumed status differs from uninterrupted baseline:\n got %s\nwant %s", m["status"], baseline)
			}
		})
	}
}

// sseFrame is one parsed SSE event.
type sseFrame struct {
	id, event, data string
}

// readSSE parses frames from url until the stream closes.
func readSSE(t *testing.T, url string, lastEventID string) []sseFrame {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.id != "" || cur.data != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return frames
}

// TestSSEReplayFromLastEventID is the second acceptance pin: replaying
// with Last-Event-ID=k returns exactly the frames after position k of
// what a from-start subscriber sees — same ids, kinds, and payload bytes.
func TestSSEReplayFromLastEventID(t *testing.T) {
	reg, srv := newTestServer(t)
	resp, m := postJSON(t, srv.URL+"/studies", `{"scale":"demo"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	id := studyID(t, m)
	h, _ := reg.Get(id)

	// The from-start subscriber follows the stream live, end to end.
	events := srv.URL + "/studies/" + id + "/events"
	full := readSSE(t, events, "")
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if st, err := h.Wait(ctx); st != Done || err != nil {
		t.Fatalf("study ended %s, %v", st, err)
	}
	if len(full) < 4 {
		t.Fatalf("only %d frames", len(full))
	}
	for i, fr := range full {
		if fr.id != fmt.Sprint(i+1) {
			t.Fatalf("frame %d has id %q (want gapless 1-based)", i, fr.id)
		}
	}

	// Reconnect from every split point; each suffix must match the full
	// stream's tail exactly.
	for _, k := range []int{0, 1, len(full) / 2, len(full) - 1, len(full)} {
		got := readSSE(t, events, fmt.Sprint(k))
		want := full[k:]
		if len(got) != len(want) {
			t.Fatalf("Last-Event-ID=%d returned %d frames, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Last-Event-ID=%d frame %d:\n got %+v\nwant %+v", k, i, got[i], want[i])
			}
		}
	}

	// ?since= is the header's query twin.
	got := readSSE(t, events+"?since="+fmt.Sprint(len(full)/2), "")
	if len(got) != len(full)-len(full)/2 {
		t.Fatalf("?since returned %d frames, want %d", len(got), len(full)-len(full)/2)
	}
}

// TestHTTPErrors: the error contract — 400 for bad input, 404 for
// unknown studies, 409 for illegal transitions.
func TestHTTPErrors(t *testing.T) {
	reg, srv := newTestServer(t)

	if resp, _ := postJSON(t, srv.URL+"/studies", `{"scale":"galactic"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown scale = %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/studies", `{"unknown_field":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field = %d", resp.StatusCode)
	}
	// Every study checkpoints once when it stops; the old cadence field is
	// refused rather than silently ignored.
	if resp, _ := postJSON(t, srv.URL+"/studies", `{"scale":"demo","checkpoint_every":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("checkpoint_every = %d", resp.StatusCode)
	}
	if resp, _ := getJSON(t, srv.URL+"/studies/study-9999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown study = %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/studies/study-9999/pause", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pause unknown = %d", resp.StatusCode)
	}

	resp, m := postJSON(t, srv.URL+"/studies", `{"scale":"demo"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	id := studyID(t, m)
	h, _ := reg.Get(id)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if st, _ := h.Wait(ctx); st != Done {
		t.Fatalf("study ended %s", st)
	}
	if resp, em := postJSON(t, srv.URL+"/studies/"+id+"/pause", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("pause of done study = %d (%v)", resp.StatusCode, em)
	} else if len(em["error"]) == 0 {
		t.Fatal("409 without error body")
	}
	if resp, _ := postJSON(t, srv.URL+"/studies/"+id+"/resume", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("resume of done study = %d", resp.StatusCode)
	}

	// Bad ?since is a 400, not a hung stream.
	r2, err := http.Get(srv.URL + "/studies/" + id + "/events?since=banana")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since = %d", r2.StatusCode)
	}

	// List includes the study.
	r3, err := http.Get(srv.URL + "/studies")
	if err != nil {
		t.Fatal(err)
	}
	var list []Info
	if err := json.NewDecoder(r3.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if len(list) != 1 || list[0].ID != id {
		t.Fatalf("list = %+v", list)
	}
}

// TestHTTPSubmitBodyLimit: a submit body over maxSubmitBody is refused
// with 413 and submits nothing, while a body just under the cap is still
// decoded (and here rejected for its scale, with a 400).
func TestHTTPSubmitBodyLimit(t *testing.T) {
	reg, srv := newTestServer(t)

	big := `{"scale":"demo","label":"` + strings.Repeat("x", maxSubmitBody) + `"}`
	resp, m := postJSON(t, srv.URL+"/studies", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit = %d (%v), want 413", resp.StatusCode, m)
	}
	if len(m["error"]) == 0 {
		t.Fatal("413 without error body")
	}
	if n := len(reg.List()); n != 0 {
		t.Fatalf("oversized submit registered %d studies", n)
	}

	under := `{"scale":"galactic","label":"` + strings.Repeat("x", maxSubmitBody-64) + `"}`
	if resp, m := postJSON(t, srv.URL+"/studies", under); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("submit under the cap = %d (%v), want 400 for the unknown scale", resp.StatusCode, m)
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
