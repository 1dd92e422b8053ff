// Package registry is the study service's control plane: a daemon-side
// registry hosting many concurrent studies, each wrapped in a Handle
// whose lifecycle state machine (Pending → Running ⇄ Paused →
// Done/Cancelled/Failed) is built on the simulation's wave-boundary
// cancellation and checkpoint/resume machinery. The HTTP API over it
// lives in http.go; outbound webhooks ride the same per-study event
// streams through internal/hook.
package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"tripwire/internal/evbus"
	"tripwire/internal/hook"
	"tripwire/internal/obs"
)

// Options configures a Registry.
type Options struct {
	// DataDir roots per-study state (checkpoints live in
	// <DataDir>/<id>/checkpoints). Empty uses a directory under the
	// system temp dir.
	DataDir string
	// MaxActive bounds concurrently executing simulations; further
	// submissions queue in Pending. Default 2.
	MaxActive int
	// Metrics, when non-nil, receives the service counters
	// (tripwire_serve_*). Study simulations are not instrumented here —
	// a study's own metrics stay per-study concerns.
	Metrics *obs.Registry
	// Hooks, when non-nil, receives every published event for webhook
	// delivery. The registry does not own it: the caller Closes it after
	// the registry.
	Hooks *hook.Dispatcher
}

// Registry hosts the studies. All methods are safe for concurrent use.
type Registry struct {
	opts Options
	sem  chan struct{} // active-study slots

	mu      sync.Mutex
	studies map[string]*Handle
	order   []string
	nextID  int
	closed  bool

	mSubmitted *obs.Counter
	mEvents    *obs.Counter
}

// New builds a registry, creating DataDir if needed.
func New(opts Options) (*Registry, error) {
	if opts.DataDir == "" {
		opts.DataDir = filepath.Join(os.TempDir(), "tripwire-serve")
	}
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: data dir: %w", err)
	}
	if opts.MaxActive <= 0 {
		opts.MaxActive = 2
	}
	return &Registry{
		opts:       opts,
		sem:        make(chan struct{}, opts.MaxActive),
		studies:    make(map[string]*Handle),
		mSubmitted: opts.Metrics.Counter("tripwire_serve_studies_submitted", "studies accepted by POST /studies"),
		mEvents:    opts.Metrics.Counter("tripwire_serve_events_published", "events published on study streams"),
	}, nil
}

// ErrClosed rejects submissions to a shut-down registry.
var ErrClosed = errors.New("registry: closed")

// Submit validates req, builds the study, and starts its lifecycle. A
// request that fails validation (unknown scale, invalid derived
// configuration) returns an error and leaves no handle behind.
func (r *Registry) Submit(req SubmitRequest) (*Handle, error) {
	cfg, err := req.buildConfig()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	r.nextID++
	id := fmt.Sprintf("study-%04d", r.nextID)
	r.mu.Unlock()

	h := &Handle{
		id:            id,
		label:         req.Label,
		scale:         req.Scale,
		cfg:           cfg,
		reg:           r,
		checkpointDir: filepath.Join(r.opts.DataDir, id, "checkpoints"),
		bus:           evbus.New[Event](),
		state:         Pending,
	}
	if h.scale == "" {
		h.scale = "small"
	}
	if err := os.MkdirAll(h.checkpointDir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %s: checkpoint dir: %w", id, err)
	}

	study := h.newIncarnation()
	if err := study.Err(); err != nil {
		return nil, fmt.Errorf("registry: invalid study configuration: %w", err)
	}
	h.study = study
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	h.done = make(chan struct{})

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		cancel()
		return nil, ErrClosed
	}
	r.studies[id] = h
	r.order = append(r.order, id)
	r.mu.Unlock()

	r.mSubmitted.Inc()
	h.publish(Event{Kind: KindSubmitted, At: cfg.Start, State: Pending.String()})
	go h.run(study, h.gen, ctx, h.done, 0)
	return h, nil
}

// Get returns the handle for id.
func (r *Registry) Get(id string) (*Handle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.studies[id]
	return h, ok
}

// List returns every handle in submission order.
func (r *Registry) List() []*Handle {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Handle, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.studies[id])
	}
	return out
}

// HookStats exposes the webhook dispatcher's per-endpoint accounting
// (GET /hooks); nil dispatcher yields an empty map.
func (r *Registry) HookStats() map[string]hook.EndpointStats {
	if r.opts.Hooks == nil {
		return map[string]hook.EndpointStats{}
	}
	return r.opts.Hooks.Stats()
}

// Close stops accepting submissions, cancels every study that has not
// reached a terminal state, and waits for their goroutines to settle.
// Checkpoints stay on disk under DataDir.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed = true
	handles := make([]*Handle, 0, len(r.order))
	for _, id := range r.order {
		handles = append(handles, r.studies[id])
	}
	r.mu.Unlock()
	for _, h := range handles {
		if !h.State().Terminal() {
			_ = h.Cancel() // racing completions surface as TransitionError; both outcomes are settled
		}
	}
}

// published counts and forwards one event to the webhook dispatcher.
// Dispatch never blocks (bounded per-endpoint queues), so publishing —
// which runs on the simulation's event path — stays O(1).
func (r *Registry) published(ev Event) {
	r.mEvents.Inc()
	if r.opts.Hooks == nil {
		return
	}
	body, err := json.Marshal(ev)
	if err != nil {
		return
	}
	r.opts.Hooks.Dispatch(ev.Kind, body)
}
