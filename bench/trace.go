package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"tripwire/internal/obs"
)

// tracer collects the traced run's spans and per-layer metrics. Spans are
// recorded by the benchmark around its calls into the library, kept in
// memory, and written as Chrome trace-event JSON when the run ends. A nil
// *tracer is the untraced run: every method is a no-op, so the measured
// path carries no instrumentation beyond a nil check.
type tracer struct {
	dir   string
	start time.Time
	prof  *os.File

	mu     sync.Mutex
	spans  []span
	stack  []string // open spans of the calling goroutine, innermost last
	layers map[string]float64
}

type span struct {
	name, cat, parent string
	start, dur        time.Duration
	tid               int
}

func newTracer(dir string) (*tracer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &tracer{dir: dir, start: time.Now(), layers: make(map[string]float64)}, nil
}

// begin opens a span on the calling goroutine and returns the function that
// closes it. Spans opened this way nest: each records the innermost open
// span as its parent.
func (t *tracer) begin(cat, name string) func() {
	if t == nil {
		return func() {}
	}
	t0 := time.Now()
	t.mu.Lock()
	parent := ""
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, name)
	t.mu.Unlock()
	return func() {
		d := time.Since(t0)
		t.mu.Lock()
		t.stack = t.stack[:len(t.stack)-1]
		t.spans = append(t.spans, span{name: name, cat: cat, parent: parent, start: t0.Sub(t.start), dur: d})
		t.mu.Unlock()
	}
}

// timed is begin that also adds the span's duration, in seconds, to the
// per-layer metric named metric.
func (t *tracer) timed(metric, cat, name string) func() {
	if t == nil {
		return func() {}
	}
	t0 := time.Now()
	end := t.begin(cat, name)
	return func() {
		end()
		t.add(metric, time.Since(t0).Seconds())
	}
}

// record adds a span measured elsewhere (a worker goroutine, an executor
// callback) on thread lane tid, parented to the innermost open span.
func (t *tracer) record(cat, name string, start time.Time, dur time.Duration, tid int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	parent := ""
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, cat: cat, parent: parent, start: start.Sub(t.start), dur: dur, tid: tid})
	t.mu.Unlock()
}

func (t *tracer) add(metric string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.layers[metric] += v
	t.mu.Unlock()
}

func (t *tracer) set(metric string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.layers[metric] = v
	t.mu.Unlock()
}

func (t *tracer) get(metric string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.layers[metric]
}

// ratio sets metric to num/den of two accumulated layer values, leaving it
// 0 when the denominator is.
func (t *tracer) ratio(metric, num, den string) {
	if d := t.get(den); d > 0 {
		t.set(metric, t.get(num)/d)
	}
}

// startProfile begins the CPU profile of the measured region.
func (t *tracer) startProfile() error {
	f, err := os.Create(filepath.Join(t.dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.prof = f
	return nil
}

func (t *tracer) stopProfile() error {
	if t.prof == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := t.prof.Close()
	t.prof = nil
	return err
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Times are microseconds from the start of
// the traced iteration.
func (t *tracer) writeChrome(meta any) error {
	f, err := os.Create(filepath.Join(t.dir, "trace.json"))
	if err != nil {
		return err
	}
	defer f.Close()
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		ev := event{Name: s.name, Cat: s.cat, Ph: "X", Ts: micros(s.start), Dur: micros(s.dur), Pid: 1, Tid: s.tid}
		if s.parent != "" {
			ev.Args = map[string]string{"parent": s.parent}
		}
		events = append(events, ev)
	}
	t.mu.Unlock()
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runtimeSample reads the Go runtime's cumulative GC CPU, allocated bytes
// and GC cycle count; the traced run reports their change over the
// measured region.
type runtimeSample struct{ gcCPU, allocBytes, cycles float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(x metrics.Sample) float64 {
		switch x.Value.Kind() {
		case metrics.KindFloat64:
			return x.Value.Float64()
		case metrics.KindUint64:
			return float64(x.Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(s[0]), allocBytes: val(s[1]), cycles: val(s[2])}
}

func (t *tracer) addRuntime(from, to runtimeSample) {
	t.add("runtime.gc_cpu_s", to.gcCPU-from.gcCPU)
	t.add("runtime.alloc_mb", (to.allocBytes-from.allocBytes)/(1<<20))
	t.add("runtime.gc_cycles", to.cycles-from.cycles)
}

// cpuSeconds is the process's user+system CPU so far, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set size (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// addRegistry folds one metrics registry's counters into the layer
// metrics. Raw counts accumulate under their own names so several studies
// (or universes) sum before the ratios are taken in finishRatios.
func (t *tracer) addRegistry(r *obs.Registry) {
	if t == nil || r == nil {
		return
	}
	snap := r.Snapshot()
	sum := func(prefix string) float64 {
		v := 0.0
		for k, x := range snap.Counters {
			if k == prefix || strings.HasPrefix(k, prefix+"{") {
				v += x
			}
		}
		return v
	}
	t.add("sim.wave_s", snap.Histograms["tripwire_sim_wave_duration_seconds"].Sum)
	t.add("sim.crawl_task_busy_s", snap.Histograms["tripwire_sim_task_duration_seconds"].Sum)
	t.add("crawler.attempts", sum("tripwire_crawler_attempts_total"))
	t.add("crawler.ok", snap.Counters[`tripwire_crawler_outcomes_total{code="ok_submission"}`])
	t.add("webgen.render_hits", sum("tripwire_webgen_render_cache_hits_total"))
	t.add("webgen.render_misses", sum("tripwire_webgen_render_cache_misses_total"))
	t.add("timeline.events", sum("tripwire_timeline_events_total"))
	t.add("simclock.epochs", sum("tripwire_timeline_epochs_total"))
	t.add("attacker.stuff_attempts", sum("tripwire_attacker_stuffing_attempts_total"))
	t.add("attacker.stuff_successes", sum("tripwire_attacker_stuffing_successes_total"))
	t.add("emailprovider.logins", sum("tripwire_provider_logins_total"))
	t.add("core.detections", sum("tripwire_monitor_detections_total"))
	// The classify cache is package-global, so its counters are cumulative
	// for the process: keep the latest reading rather than summing.
	if hits, ok := snap.Counters["tripwire_crawler_classify_cache_hits_total"]; ok {
		t.set("crawler.classify_hits", hits)
		t.set("crawler.classify_misses", snap.Counters["tripwire_crawler_classify_cache_misses_total"])
	}
}

// finishRatios derives the ratio metrics from the accumulated raw counts.
func (t *tracer) finishRatios() {
	t.ratio("crawler.ok_frac", "crawler.ok", "crawler.attempts")
	t.set("crawler.classify_lookups", t.get("crawler.classify_hits")+t.get("crawler.classify_misses"))
	t.ratio("crawler.classify_hit_frac", "crawler.classify_hits", "crawler.classify_lookups")
	t.set("webgen.render_lookups", t.get("webgen.render_hits")+t.get("webgen.render_misses"))
	t.ratio("webgen.render_hit_frac", "webgen.render_hits", "webgen.render_lookups")
	t.ratio("attacker.stuff_success_frac", "attacker.stuff_successes", "attacker.stuff_attempts")
	t.ratio("simclock.mean_width", "timeline.events", "simclock.epochs")
}
