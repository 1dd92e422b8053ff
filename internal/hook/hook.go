// Package hook is the outbound webhook dispatcher of the study service:
// rules match event kinds to destination URLs, payloads are signed with
// HMAC-SHA256, and delivery is retried with exponential backoff over a
// bounded per-endpoint queue, so one slow or dead subscriber can neither
// backpressure the event producer nor starve the other endpoints. The
// rule/trigger shape follows the adnanh/webhook model; configuration is
// env-only (see RulesFromEnv).
package hook

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tripwire/internal/httpx"
)

// Rule routes matching events to one endpoint.
type Rule struct {
	// Name identifies the rule (the <NAME> of its env variables); it is
	// echoed in the X-Tripwire-Hook request header.
	Name string
	// URL receives matching events as JSON POSTs.
	URL string
	// Secret, when non-empty, signs each payload: the httpx.SignatureHeader
	// carries httpx.Sign(secret, body).
	Secret string
	// Kinds filters event kinds ("detection", "wave", "study.done", ...).
	// Empty — or containing "*" — matches every kind.
	Kinds []string
}

// Matches reports whether the rule wants events of kind.
func (r *Rule) Matches(kind string) bool {
	if len(r.Kinds) == 0 {
		return true
	}
	for _, k := range r.Kinds {
		if k == "*" || k == kind {
			return true
		}
	}
	return false
}

// Options tunes a Dispatcher. The zero value gives production defaults;
// tests shrink the backoff to keep the retry path fast.
type Options struct {
	// Client performs the deliveries; nil uses a client with a 10 s
	// request timeout.
	Client *http.Client
	// QueueSize bounds each endpoint's pending-delivery queue; when full,
	// new deliveries for that endpoint are dropped (and counted) instead
	// of blocking the producer. Default 256.
	QueueSize int
	// MaxAttempts is how many times one delivery is tried before it is
	// recorded failed. Default 5.
	MaxAttempts int
	// BackoffBase is the sleep before the first retry; each further retry
	// doubles it up to BackoffMax. Defaults 100 ms and 5 s.
	BackoffBase, BackoffMax time.Duration
	// Observe, when non-nil, receives one call per delivery outcome step:
	// "delivered", "retry", "failed", "dropped". The service layer bridges
	// this to its metrics registry.
	Observe func(outcome string)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Client == nil {
		out.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if out.QueueSize <= 0 {
		out.QueueSize = 256
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 5
	}
	if out.BackoffBase <= 0 {
		out.BackoffBase = 100 * time.Millisecond
	}
	if out.BackoffMax <= 0 {
		out.BackoffMax = 5 * time.Second
	}
	return out
}

// EndpointStats is the delivery accounting of one rule's endpoint.
type EndpointStats struct {
	Queued    int64 `json:"queued"`    // accepted into the queue
	Delivered int64 `json:"delivered"` // 2xx acknowledged
	Retries   int64 `json:"retries"`   // individual retry attempts
	Failed    int64 `json:"failed"`    // gave up after MaxAttempts
	Dropped   int64 `json:"dropped"`   // rejected on a full queue
}

// endpoint is one rule plus its bounded queue and worker.
type endpoint struct {
	rule Rule
	q    chan delivery

	queued, delivered, retries, failed, dropped atomic.Int64
}

type delivery struct {
	id   uint64
	kind string
	body []byte
}

// Dispatcher fans events out to every matching rule's endpoint. Dispatch
// never blocks; each endpoint drains its own queue on its own goroutine.
type Dispatcher struct {
	opts      Options
	endpoints []*endpoint
	nextID    atomic.Uint64
	stop      chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

// NewDispatcher starts one delivery worker per rule.
func NewDispatcher(rules []Rule, opts Options) *Dispatcher {
	d := &Dispatcher{opts: opts.withDefaults(), stop: make(chan struct{})}
	for _, r := range rules {
		e := &endpoint{rule: r, q: make(chan delivery, d.opts.QueueSize)}
		d.endpoints = append(d.endpoints, e)
		d.wg.Add(1)
		go d.work(e)
	}
	return d
}

// Dispatch enqueues body for every rule matching kind. It never blocks: a
// full endpoint queue drops the delivery for that endpoint and counts it,
// so a stuck subscriber costs its own events only.
func (d *Dispatcher) Dispatch(kind string, body []byte) {
	if len(d.endpoints) == 0 {
		return
	}
	id := d.nextID.Add(1)
	for _, e := range d.endpoints {
		if !e.rule.Matches(kind) {
			continue
		}
		select {
		case e.q <- delivery{id: id, kind: kind, body: body}:
			e.queued.Add(1)
		default:
			e.dropped.Add(1)
			d.observe("dropped")
		}
	}
}

// Close stops the dispatcher: pending retries are abandoned, queued but
// undelivered events are recorded failed, and Close returns once every
// worker has exited. Dispatch calls racing Close may be dropped.
func (d *Dispatcher) Close() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.wg.Wait()
}

// Stats returns per-rule delivery accounting, keyed by rule name.
func (d *Dispatcher) Stats() map[string]EndpointStats {
	out := make(map[string]EndpointStats, len(d.endpoints))
	for _, e := range d.endpoints {
		out[e.rule.Name] = EndpointStats{
			Queued:    e.queued.Load(),
			Delivered: e.delivered.Load(),
			Retries:   e.retries.Load(),
			Failed:    e.failed.Load(),
			Dropped:   e.dropped.Load(),
		}
	}
	return out
}

func (d *Dispatcher) observe(outcome string) {
	if d.opts.Observe != nil {
		d.opts.Observe(outcome)
	}
}

// work drains one endpoint's queue until the dispatcher closes.
func (d *Dispatcher) work(e *endpoint) {
	defer d.wg.Done()
	for {
		select {
		case <-d.stop:
			// Drain what is queued into the failed count so Stats balances.
			for {
				select {
				case <-e.q:
					e.failed.Add(1)
				default:
					return
				}
			}
		case del := <-e.q:
			d.deliver(e, del)
		}
	}
}

// deliver attempts one delivery with exponential backoff between tries.
func (d *Dispatcher) deliver(e *endpoint, del delivery) {
	backoff := d.opts.BackoffBase
	for attempt := 1; ; attempt++ {
		if d.post(e, del, attempt) {
			e.delivered.Add(1)
			d.observe("delivered")
			return
		}
		if attempt >= d.opts.MaxAttempts {
			e.failed.Add(1)
			d.observe("failed")
			return
		}
		e.retries.Add(1)
		d.observe("retry")
		select {
		case <-time.After(backoff):
		case <-d.stop:
			e.failed.Add(1)
			return
		}
		if backoff *= 2; backoff > d.opts.BackoffMax {
			backoff = d.opts.BackoffMax
		}
	}
}

// post performs one signed POST; true means the endpoint acknowledged
// with a 2xx status.
func (d *Dispatcher) post(e *endpoint, del delivery, attempt int) bool {
	req, err := http.NewRequest(http.MethodPost, e.rule.URL, bytes.NewReader(del.body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tripwire-Hook", e.rule.Name)
	req.Header.Set("X-Tripwire-Event", del.kind)
	req.Header.Set("X-Tripwire-Delivery", strconv.FormatUint(del.id, 10))
	req.Header.Set("X-Tripwire-Attempt", strconv.Itoa(attempt))
	if e.rule.Secret != "" {
		req.Header.Set(httpx.SignatureHeader, httpx.Sign(e.rule.Secret, del.body))
	}
	resp, err := d.opts.Client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// envPrefix introduces every hook rule variable:
// TRIPWIRE_HOOK_<NAME>_URL (required), _SECRET, _EVENTS (comma-separated
// kinds; empty or "*" means all).
const envPrefix = "TRIPWIRE_HOOK_"

// RulesFromEnv parses hook rules out of an environment list (os.Environ
// form). Rules are returned sorted by name so the dispatcher's endpoint
// order — and with it Stats and test output — is deterministic. A _SECRET
// or _EVENTS with no matching _URL is an error: a silently ignored
// misspelling would disable the endpoint the operator thought was armed.
func RulesFromEnv(environ []string) ([]Rule, error) {
	urls := map[string]string{}
	secrets := map[string]string{}
	events := map[string]string{}
	for _, kv := range environ {
		key, val, ok := strings.Cut(kv, "=")
		if !ok || !strings.HasPrefix(key, envPrefix) {
			continue
		}
		rest := strings.TrimPrefix(key, envPrefix)
		switch {
		case strings.HasSuffix(rest, "_URL"):
			urls[strings.TrimSuffix(rest, "_URL")] = val
		case strings.HasSuffix(rest, "_SECRET"):
			secrets[strings.TrimSuffix(rest, "_SECRET")] = val
		case strings.HasSuffix(rest, "_EVENTS"):
			events[strings.TrimSuffix(rest, "_EVENTS")] = val
		default:
			return nil, fmt.Errorf("hook: unrecognized variable %s (want %s<NAME>_URL, _SECRET, or _EVENTS)", key, envPrefix)
		}
	}
	for name := range secrets {
		if _, ok := urls[name]; !ok {
			return nil, fmt.Errorf("hook: %s%s_SECRET set without %s%s_URL", envPrefix, name, envPrefix, name)
		}
	}
	for name := range events {
		if _, ok := urls[name]; !ok {
			return nil, fmt.Errorf("hook: %s%s_EVENTS set without %s%s_URL", envPrefix, name, envPrefix, name)
		}
	}
	names := make([]string, 0, len(urls))
	for name := range urls {
		names = append(names, name)
	}
	sort.Strings(names)
	var rules []Rule
	for _, name := range names {
		if _, err := url.ParseRequestURI(urls[name]); err != nil {
			return nil, fmt.Errorf("hook: %s%s_URL: %w", envPrefix, name, err)
		}
		r := Rule{Name: name, URL: urls[name], Secret: secrets[name]}
		if ev := strings.TrimSpace(events[name]); ev != "" && ev != "*" {
			for _, k := range strings.Split(ev, ",") {
				if k = strings.TrimSpace(k); k != "" {
					r.Kinds = append(r.Kinds, k)
				}
			}
		}
		rules = append(rules, r)
	}
	return rules, nil
}
