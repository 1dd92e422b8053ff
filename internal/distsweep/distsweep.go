// Package distsweep lifts internal/sweep's multi-seed study sweep onto a
// coordinator/worker architecture: one coordinator partitions the sweep
// into idempotent, lease-based seed tasks and serves them over an HTTP
// control plane; any number of workers (other processes, other machines)
// lease tasks, run each seed through the ordinary study pipeline
// (sweep.RunSeedContext → tripwire.New(...).RunContext), and stream the
// per-seed result back with a content digest.
//
// The determinism argument mirrors the in-process sweep's: a seed's
// SeedResult is a pure function of its configuration, so it does not
// matter which worker runs it, how often it is retried, or in what order
// completions arrive — the coordinator slots results by seed index and
// the aggregated Outcome is byte-identical to a serial sweep.Run (modulo
// the wall-clock Wall field, which is measurement metadata).
//
// Fault tolerance is lease-based, in the idempotent-task style of the
// registry's generation-fenced incarnations:
//
//   - A lease carries a deadline and a generation number. A worker that
//     dies, stalls, or partitions away simply stops renewing; once the
//     deadline passes the coordinator re-issues the task with the
//     generation bumped.
//   - A completion must quote the generation it leased. Completions for a
//     superseded generation — the crashed worker coming back, a slow
//     duplicate — are discarded, so exactly one result per seed is ever
//     accepted.
//   - Every completion carries a SHA-256 digest of its canonical result
//     encoding; the coordinator recomputes it over the bytes it received
//     and rejects mismatches, so a corrupted result can never enter the
//     aggregate.
//
// The control plane reuses the patterns of internal/registry and
// internal/hook: a Go 1.22 ServeMux, the registry's per-IP token-bucket
// rate limiter, and hook-style HMAC-SHA256 request signing
// (X-Tripwire-Signature over the request body) under a shared secret.
package distsweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"tripwire/internal/obs"
	"tripwire/internal/sweep"
)

// Spec is the sweep description the coordinator hands to joining workers:
// how many seeds there are and the opaque scale tag the caller uses to
// rebuild the per-seed configuration (cmd/tripwire-sweep maps it through
// the same ConfigFor both serially and distributed).
type Spec struct {
	// N is how many seed tasks the sweep holds (seed indexes 1..N).
	N int `json:"n"`
	// Scale is an opaque configuration tag; workers resolve it to a
	// ConfigFor function. The coordinator never interprets it.
	Scale string `json:"scale"`
	// LeaseTTLMS is the lease deadline workers must renew within,
	// in milliseconds.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
}

// wireResult is the canonical over-the-wire encoding of one
// sweep.SeedResult. Field order is fixed by the struct, so
// json.Marshal(wireResult) is a canonical byte string and its SHA-256 is
// the task's content digest. Wall crosses as integer nanoseconds —
// float64 seconds would not round-trip bit-exactly.
type wireResult struct {
	Seed       int64   `json:"seed"`
	Detections int     `json:"detections"`
	Plaintext  int     `json:"plaintext"`
	ValidPct   float64 `json:"valid_pct"`
	HasValid   bool    `json:"has_valid"`
	EligPct    float64 `json:"elig_pct"`
	Alarms     int     `json:"alarms"`
	WallNS     int64   `json:"wall_ns"`
	Err        string  `json:"err,omitempty"`
}

// toWire converts a SeedResult for transport.
func toWire(r sweep.SeedResult) wireResult {
	w := wireResult{
		Seed:       r.Seed,
		Detections: r.Detections,
		Plaintext:  r.Plaintext,
		ValidPct:   r.ValidPct,
		HasValid:   r.HasValid,
		EligPct:    r.EligPct,
		Alarms:     r.Alarms,
		WallNS:     int64(r.Wall),
	}
	if r.Err != nil {
		w.Err = r.Err.Error()
	}
	return w
}

// fromWire restores the SeedResult. Error identity does not survive the
// wire — only the message does — which is all the sweep's rendering and
// exit-status paths ever use.
func (w wireResult) fromWire() sweep.SeedResult {
	r := sweep.SeedResult{
		Seed:       w.Seed,
		Detections: w.Detections,
		Plaintext:  w.Plaintext,
		ValidPct:   w.ValidPct,
		HasValid:   w.HasValid,
		EligPct:    w.EligPct,
		Alarms:     w.Alarms,
		Wall:       time.Duration(w.WallNS),
	}
	if w.Err != "" {
		r.Err = errors.New(w.Err)
	}
	return r
}

// EncodeResult renders a SeedResult in its canonical wire form; Digest of
// these bytes is what a completion must quote.
func EncodeResult(r sweep.SeedResult) []byte {
	data, err := json.Marshal(toWire(r))
	if err != nil {
		// wireResult contains only scalars; Marshal cannot fail.
		panic(fmt.Sprintf("distsweep: encoding result: %v", err))
	}
	return data
}

// Digest is the content digest quoted by completions: hex SHA-256.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// taskState is the lease lifecycle of one seed task.
type taskState int

const (
	taskPending taskState = iota
	taskLeased
	taskDone
)

// task is one seed's coordinator-side state.
type task struct {
	state      taskState
	generation int       // bumped on every (re-)issue; completions must match
	deadline   time.Time // lease expiry when leased
	worker     string
	result     sweep.SeedResult
	digest     string // digest of the accepted result
}

// Options configures a Coordinator.
type Options struct {
	// N is how many seed tasks to issue (seed indexes 1..N).
	N int
	// Scale is the opaque configuration tag echoed to workers in Spec.
	Scale string
	// LeaseTTL is how long a lease lives without renewal before the task
	// is re-issued. Default 30s; tests shrink it to force expiry.
	LeaseTTL time.Duration
	// Secret, when non-empty, requires every mutating request to carry a
	// valid X-Tripwire-Signature (hook.Sign over the body).
	Secret string
	// Progress, when non-nil, receives one sweep progress line per
	// accepted completion, in completion order, through a single
	// serializing writer goroutine (the same format and mechanism as the
	// in-process sweep).
	Progress io.Writer
	// Metrics, when non-nil, receives the tripwire_distsweep_* inventory.
	Metrics *obs.Registry
	// Rate and Burst configure the per-IP token-bucket limiter on the
	// control plane; Rate <= 0 disables limiting. Burst <= 0 with a
	// positive Rate means ⌈2×Rate⌉, tripwire-serve's default ratio.
	Rate  float64
	Burst int
	// Now is the clock (test hook). Default time.Now.
	Now func() time.Time
}

// metrics is the tripwire_distsweep_* instrument set.
type metrics struct {
	leased     *obs.Counter
	completed  *obs.Counter
	reissued   *obs.Counter
	discarded  *obs.CounterVec
	seedsMilli *obs.Gauge
}

// discard reasons (the closed label set of
// tripwire_distsweep_completions_discarded_total).
const (
	discardStale     = "stale_generation"
	discardDuplicate = "duplicate"
	discardDigest    = "digest_mismatch"
)

// Coordinator owns a sweep's task set and aggregates accepted results in
// seed order. Serve it over HTTP with Handler.
type Coordinator struct {
	opts Options

	mu        sync.Mutex
	tasks     []task // index i holds seed index i+1
	remaining int
	workers   map[string]time.Time // worker name → last contact
	started   time.Time
	// Protocol accounting: authoritative (the obs instruments mirror
	// these, but a nil registry must not blind Status).
	reissued  int
	discarded int

	done     chan struct{}
	doneOnce sync.Once
	progress *sweep.ProgressWriter

	m metrics
}

// NewCoordinator builds the coordinator for an N-seed sweep.
func NewCoordinator(opts Options) (*Coordinator, error) {
	if opts.N <= 0 {
		return nil, fmt.Errorf("distsweep: N must be positive, got %d", opts.N)
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 30 * time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Rate > 0 && opts.Burst <= 0 {
		opts.Burst = int(math.Ceil(2 * opts.Rate))
	}
	c := &Coordinator{
		opts:      opts,
		tasks:     make([]task, opts.N),
		remaining: opts.N,
		workers:   make(map[string]time.Time),
		started:   opts.Now(),
		done:      make(chan struct{}),
		progress:  sweep.NewProgressWriter(opts.Progress),
	}
	reg := opts.Metrics
	c.m.leased = reg.Counter("tripwire_distsweep_tasks_leased_total",
		"Seed-task leases issued to workers (including re-issues)")
	c.m.completed = reg.Counter("tripwire_distsweep_tasks_completed_total",
		"Seed tasks whose first valid completion was accepted")
	c.m.reissued = reg.Counter("tripwire_distsweep_tasks_reissued_total",
		"Seed tasks re-issued after a lease expired (worker lost or stalled)")
	c.m.discarded = reg.CounterVec("tripwire_distsweep_completions_discarded_total",
		"Completions rejected instead of aggregated", "reason",
		discardStale, discardDuplicate, discardDigest)
	c.m.seedsMilli = reg.Gauge("tripwire_distsweep_seeds_per_sec_milli",
		"Sweep throughput: accepted completions per wall-clock second, in thousandths")
	if reg != nil {
		reg.GaugeFunc("tripwire_distsweep_workers_live",
			"Workers heard from within the last three lease TTLs",
			c.liveWorkers)
	}
	return c, nil
}

// Spec describes the sweep to a joining worker.
func (c *Coordinator) Spec() Spec {
	return Spec{N: c.opts.N, Scale: c.opts.Scale, LeaseTTLMS: c.opts.LeaseTTL.Milliseconds()}
}

// liveWorkers counts workers heard from within three lease TTLs — the
// collection-time read behind tripwire_distsweep_workers_live.
func (c *Coordinator) liveWorkers() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := c.opts.Now().Add(-3 * c.opts.LeaseTTL)
	var n int64
	for _, last := range c.workers {
		if last.After(cutoff) {
			n++
		}
	}
	return n
}

// touch records contact from a worker. Callers hold c.mu.
func (c *Coordinator) touch(worker string) {
	if worker != "" {
		c.workers[worker] = c.opts.Now()
	}
}

// expireLocked re-issues every leased task whose deadline has passed,
// bumping its generation so the lost worker's eventual completion is
// fenced off. Callers hold c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	for i := range c.tasks {
		t := &c.tasks[i]
		if t.state == taskLeased && now.After(t.deadline) {
			t.state = taskPending
			t.generation++
			t.worker = ""
			c.reissued++
			c.m.reissued.Inc()
		}
	}
}

// Lease hands out the lowest pending seed task. The second return is
// false when nothing is leasable right now: the caller distinguishes
// "sweep complete" (Done) from "poll again later".
func (c *Coordinator) Lease(worker string) (seedIndex, generation int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	c.touch(worker)
	c.expireLocked(now)
	for i := range c.tasks {
		t := &c.tasks[i]
		if t.state != taskPending {
			continue
		}
		if t.generation == 0 {
			t.generation = 1 // first issue
		}
		t.state = taskLeased
		t.deadline = now.Add(c.opts.LeaseTTL)
		t.worker = worker
		c.m.leased.Inc()
		return i + 1, t.generation, true
	}
	return 0, 0, false
}

// Renew extends the lease on (seedIndex, generation). A false return
// means the lease is gone — expired and re-issued, or already completed —
// and the worker should abandon the seed.
func (c *Coordinator) Renew(worker string, seedIndex, generation int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(worker)
	if seedIndex < 1 || seedIndex > len(c.tasks) {
		return false
	}
	t := &c.tasks[seedIndex-1]
	if t.state != taskLeased || t.generation != generation {
		return false
	}
	t.deadline = c.opts.Now().Add(c.opts.LeaseTTL)
	return true
}

// CompleteError discriminates rejected completions.
type CompleteError struct {
	Reason string // one of the discard reasons
}

func (e *CompleteError) Error() string {
	return "distsweep: completion discarded: " + e.Reason
}

// Complete ingests one worker's result for (seedIndex, generation):
// resultBytes is the canonical encoding (EncodeResult) and digest its
// claimed SHA-256. Duplicate and superseded-generation completions are
// discarded with a *CompleteError — the distributed sweep's idempotency
// point: re-running a seed can never double-count it.
func (c *Coordinator) Complete(worker string, seedIndex, generation int, resultBytes []byte, digest string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch(worker)
	if seedIndex < 1 || seedIndex > len(c.tasks) {
		return fmt.Errorf("distsweep: seed index %d out of range 1..%d", seedIndex, len(c.tasks))
	}
	t := &c.tasks[seedIndex-1]
	if t.state == taskDone {
		c.discarded++
		c.m.discarded.With(discardDuplicate).Inc()
		return &CompleteError{Reason: discardDuplicate}
	}
	if t.generation != generation {
		c.discarded++
		c.m.discarded.With(discardStale).Inc()
		return &CompleteError{Reason: discardStale}
	}
	if got := Digest(resultBytes); got != digest {
		c.discarded++
		c.m.discarded.With(discardDigest).Inc()
		return &CompleteError{Reason: discardDigest}
	}
	var w wireResult
	if err := json.Unmarshal(resultBytes, &w); err != nil {
		c.discarded++
		c.m.discarded.With(discardDigest).Inc()
		return fmt.Errorf("distsweep: decoding result for seed %d: %w", seedIndex, err)
	}
	t.result = w.fromWire()
	t.digest = digest
	t.state = taskDone
	t.worker = worker
	c.remaining--
	c.m.completed.Inc()
	if elapsed := c.opts.Now().Sub(c.started).Seconds(); elapsed > 0 {
		completed := float64(len(c.tasks) - c.remaining)
		c.m.seedsMilli.Set(int64(completed / elapsed * 1000))
	}
	c.progress.Write(t.result)
	if c.remaining == 0 {
		c.doneOnce.Do(func() {
			c.progress.Close()
			close(c.done)
		})
	}
	return nil
}

// Done is closed once every seed task has an accepted result.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Remaining reports how many seed tasks still lack an accepted result.
func (c *Coordinator) Remaining() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remaining
}

// Outcome assembles the aggregate in seed order. It is valid once Done is
// closed; called earlier it returns the partial aggregate (incomplete
// seeds zero-valued).
func (c *Coordinator) Outcome() *sweep.Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := &sweep.Outcome{Results: make([]sweep.SeedResult, len(c.tasks))}
	for i, t := range c.tasks {
		out.Results[i] = t.result
	}
	return out
}

// Status is the coordinator's aggregate progress snapshot (GET /status).
type Status struct {
	N         int   `json:"n"`
	Pending   int   `json:"pending"`
	Leased    int   `json:"leased"`
	Done      int   `json:"done"`
	Reissued  int   `json:"reissued"`
	Discarded int   `json:"discarded"`
	Workers   int64 `json:"workers_live"`
}

// Status snapshots task-set progress from the coordinator's own
// accounting — it stays correct with no metrics registry configured.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	var s Status
	s.N = len(c.tasks)
	for _, t := range c.tasks {
		switch t.state {
		case taskPending:
			s.Pending++
		case taskLeased:
			s.Leased++
		case taskDone:
			s.Done++
		}
	}
	s.Reissued = c.reissued
	s.Discarded = c.discarded
	c.mu.Unlock()
	s.Workers = c.liveWorkers()
	return s
}
