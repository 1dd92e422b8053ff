package hook

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tripwire/internal/httpx"
)

// fastOpts keeps the retry path quick in tests.
func fastOpts() Options {
	return Options{BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond}
}

func TestDispatchSignsAndSetsHeaders(t *testing.T) {
	type seen struct {
		body                      []byte
		sig, kind, hook, delivery string
	}
	got := make(chan seen, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got <- seen{
			body:     body,
			sig:      r.Header.Get(httpx.SignatureHeader),
			kind:     r.Header.Get("X-Tripwire-Event"),
			hook:     r.Header.Get("X-Tripwire-Hook"),
			delivery: r.Header.Get("X-Tripwire-Delivery"),
		}
	}))
	defer srv.Close()

	d := NewDispatcher([]Rule{{Name: "lab", URL: srv.URL, Secret: "k", Kinds: []string{"detection"}}}, fastOpts())
	defer d.Close()
	d.Dispatch("wave", []byte(`ignored`)) // kind not matched by the rule
	d.Dispatch("detection", []byte(`{"site":"a.example"}`))

	select {
	case s := <-got:
		if string(s.body) != `{"site":"a.example"}` {
			t.Fatalf("body = %q", s.body)
		}
		if !httpx.Verify("k", s.body, s.sig) {
			t.Fatalf("delivered signature %q does not verify", s.sig)
		}
		if s.kind != "detection" || s.hook != "lab" || s.delivery == "" {
			t.Fatalf("headers = %+v", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery never arrived")
	}
	select {
	case s := <-got:
		t.Fatalf("unmatched kind was delivered: %+v", s)
	case <-time.After(50 * time.Millisecond):
	}
	st := d.Stats()["lab"]
	if st.Queued != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryBackoffFlakyEndpoint(t *testing.T) {
	var calls atomic.Int64
	done := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Fail twice, then accept.
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		close(done)
	}))
	defer srv.Close()

	d := NewDispatcher([]Rule{{Name: "flaky", URL: srv.URL}}, fastOpts())
	defer d.Close()
	d.Dispatch("study.done", []byte(`{}`))

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("delivery never succeeded; %d calls", calls.Load())
	}
	// Dispatcher counters settle after the handler responds; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := d.Stats()["flaky"]
		if st.Delivered == 1 && st.Retries == 2 && st.Failed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want 1 delivered after 2 retries", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	opts := fastOpts()
	opts.MaxAttempts = 3
	d := NewDispatcher([]Rule{{Name: "dead", URL: srv.URL}}, opts)
	d.Dispatch("wave", []byte(`{}`))

	deadline := time.Now().Add(2 * time.Second)
	for d.Stats()["dead"].Failed == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("never gave up; stats = %+v", d.Stats()["dead"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.Close()
	if n := calls.Load(); n != 3 {
		t.Fatalf("endpoint called %d times, want 3", n)
	}
	if st := d.Stats()["dead"]; st.Retries != 2 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBoundedQueueDropsWithoutBlocking(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var served int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		mu.Lock()
		served++
		mu.Unlock()
	}))
	defer srv.Close()

	opts := fastOpts()
	opts.QueueSize = 2
	d := NewDispatcher([]Rule{{Name: "slow", URL: srv.URL}}, opts)

	// Worker takes one delivery and parks in the handler; two more fill the
	// queue; the rest must drop immediately rather than block this loop.
	start := time.Now()
	for i := 0; i < 10; i++ {
		d.Dispatch("wave", []byte(`{}`))
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Dispatch blocked for %v on a full queue", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for d.Stats()["slow"].Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no drops recorded; stats = %+v", d.Stats()["slow"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	d.Close()
	st := d.Stats()["slow"]
	if st.Queued+st.Dropped != 10 {
		t.Fatalf("queued %d + dropped %d != 10 dispatched", st.Queued, st.Dropped)
	}
	if st.Delivered+st.Failed != st.Queued {
		t.Fatalf("stats do not balance after Close: %+v", st)
	}
}

func TestCloseAbortsPendingRetry(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	opts := fastOpts()
	opts.BackoffBase = time.Hour // a retry sleep Close must interrupt
	d := NewDispatcher([]Rule{{Name: "r", URL: srv.URL}}, opts)
	d.Dispatch("wave", []byte(`{}`))

	deadline := time.Now().Add(2 * time.Second)
	for d.Stats()["r"].Retries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first attempt never failed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { d.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a sleeping retry")
	}
}

func TestObserveCallback(t *testing.T) {
	var mu sync.Mutex
	counts := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()

	opts := fastOpts()
	opts.Observe = func(outcome string) {
		mu.Lock()
		counts[outcome]++
		mu.Unlock()
	}
	d := NewDispatcher([]Rule{{Name: "o", URL: srv.URL}}, opts)
	d.Dispatch("wave", []byte(`{}`))
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := counts["delivered"]
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("observe counts = %v", counts)
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.Close()
}

func TestRulesFromEnv(t *testing.T) {
	rules, err := RulesFromEnv([]string{
		"PATH=/usr/bin",
		"TRIPWIRE_HOOK_LAB_URL=http://lab.example/hook",
		"TRIPWIRE_HOOK_LAB_SECRET=k1",
		"TRIPWIRE_HOOK_LAB_EVENTS=detection, study.done",
		"TRIPWIRE_HOOK_ALL_URL=http://all.example/hook",
		"TRIPWIRE_HOOK_ALL_EVENTS=*",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules: %+v", len(rules), rules)
	}
	// Sorted by name: ALL before LAB.
	if rules[0].Name != "ALL" || rules[0].Secret != "" || len(rules[0].Kinds) != 0 {
		t.Fatalf("rules[0] = %+v", rules[0])
	}
	if !rules[0].Matches("anything") {
		t.Fatal("wildcard rule should match any kind")
	}
	lab := rules[1]
	if lab.Name != "LAB" || lab.URL != "http://lab.example/hook" || lab.Secret != "k1" {
		t.Fatalf("rules[1] = %+v", lab)
	}
	if !lab.Matches("detection") || !lab.Matches("study.done") || lab.Matches("wave") {
		t.Fatalf("LAB kind matching wrong: %+v", lab.Kinds)
	}
}

func TestRulesFromEnvErrors(t *testing.T) {
	cases := []struct {
		env  []string
		want string
	}{
		{[]string{"TRIPWIRE_HOOK_X_SECRET=k"}, "_SECRET set without"},
		{[]string{"TRIPWIRE_HOOK_X_EVENTS=wave"}, "_EVENTS set without"},
		{[]string{"TRIPWIRE_HOOK_X_URI=http://x"}, "unrecognized variable"},
		{[]string{"TRIPWIRE_HOOK_X_URL=:%bad"}, "_URL"},
	}
	for _, c := range cases {
		if _, err := RulesFromEnv(c.env); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RulesFromEnv(%v) err = %v, want containing %q", c.env, err, c.want)
		}
	}
	if rules, err := RulesFromEnv([]string{"HOME=/root"}); err != nil || len(rules) != 0 {
		t.Errorf("unrelated env: rules=%v err=%v", rules, err)
	}
}
