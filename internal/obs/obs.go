// Package obs is Tripwire's zero-dependency observability layer: a metrics
// registry of sharded atomic counters, gauges, and fixed-bucket histograms,
// plus lightweight stage spans, built entirely on the standard library.
//
// The paper's pilot ran unattended for a year and its operators could only
// reconstruct funnel health from logs after the fact; obs gives a
// production-scale reproduction live telemetry on every pipeline stage
// without perturbing it. Two properties are load-bearing:
//
//   - Hot-path cost is near zero. Recording is atomic adds only — no locks,
//     no maps, no allocation (pinned by the AllocsPerRun budgets in
//     obs_test.go). Counters stripe across cache-line-padded shards so
//     heavily contended counts (page loads across 8 crawl workers) do not
//     serialize on one cache line.
//
//   - Metrics are observation-only. No instrument draws randomness, takes a
//     simulation lock, or feeds anything back into the pipeline, so a run
//     with a live Registry attached is bit-identical to one without
//     (TestTimelineWorkerInvariance runs with one attached).
//
// Every instrument method and Registry constructor is nil-receiver-safe:
// a nil *Registry hands out nil instruments whose methods are no-ops, so
// pipeline code records unconditionally and disabled telemetry costs one
// predictable branch.
//
// Read side: Snapshot returns a JSON-ready struct, WriteProm encodes the
// Prometheus text exposition format, and Handler/Serve expose both over
// HTTP (the -metrics-addr flag on cmd/tripwire and cmd/tripwire-crawl).
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// numShards stripes each counter; must be a power of two. 16 shards cover
// any worker count the crawl engine realistically runs with.
const numShards = 16

// shard is one cache-line-padded counter stripe. The padding keeps two
// shards from sharing a 64-byte line, so concurrent writers on different
// shards never false-share.
type shard struct {
	v atomic.Uint64
	_ [56]byte
}

// shardIndex picks a stripe for the calling goroutine. Goroutine stacks
// live in distinct allocations, so the address of a stack byte is a cheap,
// allocation-free discriminator that spreads concurrent writers across
// stripes without any runtime hooks. The >>10 skips the low bits that vary
// within one frame.
func shardIndex() int {
	var b byte
	return int((uintptr(unsafe.Pointer(&b)) >> 10) & (numShards - 1))
}

// Counter is a monotonically increasing, striped atomic counter.
// The zero value is NOT usable; obtain counters from a Registry. A nil
// *Counter is a no-op, which is how disabled telemetry stays free.
type Counter struct {
	shards [numShards]shard
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. It is lock-free and allocation-free.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.shards[shardIndex()].v.Add(n)
}

// Value sums the stripes.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Gauge is an instantaneous int64 value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value loads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Bounds are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
// Observe is lock-free: one atomic add for the bucket, one for the count,
// and a CAS loop for the float64 sum.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (~10) and a scan beats a branchy
	// binary search at this size — and never allocates.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DurationBuckets are the default bounds (seconds) for stage spans: wide
// enough for a sub-millisecond cache hit and a multi-minute paper-scale
// wave.
var DurationBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.25, 1, 5, 30, 120}

// Span measures a pipeline stage: a histogram of stage durations plus a
// gauge of currently active executions. Start/End are allocation-free
// (SpanTimer is a value).
type Span struct {
	active *Gauge
	dur    *Histogram
}

// Start begins one execution of the stage.
func (s *Span) Start() SpanTimer {
	if s == nil {
		return SpanTimer{}
	}
	s.active.Add(1)
	return SpanTimer{s: s, start: time.Now()}
}

// SpanTimer is one in-flight stage execution; call End exactly once.
type SpanTimer struct {
	s     *Span
	start time.Time
}

// End records the stage duration and marks the execution finished.
func (t SpanTimer) End() {
	if t.s == nil {
		return
	}
	t.s.active.Add(-1)
	t.s.dur.ObserveDuration(time.Since(t.start))
}

// kind discriminates metric families.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one exposed time series within a family: a label suffix (empty
// or `{label="value"}`) and a read function.
type series struct {
	labels string
	value  func() float64
}

// family is one registered metric family.
type family struct {
	name   string
	help   string
	kind   kind
	series []series     // counters and gauges
	hists  []*Histogram // histograms (label-free)
}

// Registry holds registered instruments. Registration takes a mutex;
// recording never does. A nil *Registry returns nil instruments from every
// constructor, making disabled telemetry a chain of no-ops.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	objects  map[string]any // instrument identity for idempotent re-registration
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*family), objects: make(map[string]any)}
}

// register installs (or finds) a family, panicking on kind mismatch —
// colliding metric names of different kinds are a programming error.
func (r *Registry) register(name, help string, k kind) *family {
	f, ok := r.byName[name]
	if ok {
		if f.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, k, f.kind))
		}
		return f
	}
	f = &family{name: name, help: help, kind: k}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Counter registers (idempotently, by name) and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.register(name, help, kindCounter)
	if c, ok := r.objects[name].(*Counter); ok {
		return c
	}
	c := &Counter{}
	r.objects[name] = c
	f.series = append(f.series, series{value: func() float64 { return float64(c.Value()) }})
	return c
}

// CounterFunc registers a counter family whose value is read from fn at
// collection time. Use it to expose an always-on package counter (e.g. a
// cache's internal hit count) without double-counting on the hot path.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.register(name, help, kindCounter)
	if _, dup := r.objects[name]; dup {
		return
	}
	r.objects[name] = fn
	f.series = append(f.series, series{value: func() float64 { return float64(fn()) }})
}

// CounterVec registers a counter family with one fixed label and a closed
// value set, e.g. crawler termination codes. Unknown values return nil
// counters (no-ops) rather than growing the set at runtime — the series
// inventory stays static and documentable.
type CounterVec struct {
	byValue map[string]*Counter
}

// CounterVec registers the family and pre-creates one counter per value.
func (r *Registry) CounterVec(name, help, label string, values ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.register(name, help, kindCounter)
	if v, ok := r.objects[name].(*CounterVec); ok {
		return v
	}
	v := &CounterVec{byValue: make(map[string]*Counter, len(values))}
	r.objects[name] = v
	for _, val := range values {
		c := &Counter{}
		v.byValue[val] = c
		cc := c
		f.series = append(f.series, series{
			labels: fmt.Sprintf("{%s=%q}", label, val),
			value:  func() float64 { return float64(cc.Value()) },
		})
	}
	return v
}

// With returns the counter for one label value (resolve once at wiring
// time, not on the hot path). Unknown values and nil receivers return nil.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	return v.byValue[value]
}

// Gauge registers (idempotently) and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.register(name, help, kindGauge)
	if g, ok := r.objects[name].(*Gauge); ok {
		return g
	}
	g := &Gauge{}
	r.objects[name] = g
	f.series = append(f.series, series{value: func() float64 { return float64(g.Value()) }})
	return g
}

// GaugeFunc registers a gauge read from fn at collection time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.register(name, help, kindGauge)
	if _, dup := r.objects[name]; dup {
		return
	}
	r.objects[name] = fn
	f.series = append(f.series, series{value: func() float64 { return float64(fn()) }})
}

// Histogram registers (idempotently) and returns a histogram with the
// given ascending upper bounds (nil means DurationBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DurationBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.register(name, help, kindHistogram)
	if h, ok := r.objects[name].(*Histogram); ok {
		return h
	}
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
	r.objects[name] = h
	f.hists = append(f.hists, h)
	return h
}

// Span registers a stage span: <name>_duration_seconds (histogram) and
// <name>_active (gauge). Document both derived series under the base name.
func (r *Registry) Span(name, help string, bounds []float64) *Span {
	if r == nil {
		return nil
	}
	return &Span{
		active: r.Gauge(name+"_active", help+" (currently executing)"),
		dur:    r.Histogram(name+"_duration_seconds", help+" (stage duration, seconds)", bounds),
	}
}
