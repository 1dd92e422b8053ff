package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("tw_test_total", "test counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("tw_test_total", "test counter"); again != c {
		t.Fatal("re-registration did not return the same counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := New()
	g := r.Gauge("tw_gauge", "test gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("tw_hist", "test histogram", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	st := histStats(h)
	if st.Count != 5 {
		t.Fatalf("count = %d, want 5", st.Count)
	}
	if st.Sum != 556.5 {
		t.Fatalf("sum = %v, want 556.5", st.Sum)
	}
	// Cumulative: <=1 catches 0.5 and 1; <=10 adds 5; <=100 adds 50; +Inf all.
	wantCum := []uint64{2, 3, 4, 5}
	for i, b := range st.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d (le=%s) = %d, want %d", i, b.LE, b.Count, wantCum[i])
		}
	}
}

func TestCounterVec(t *testing.T) {
	r := New()
	v := r.CounterVec("tw_outcomes_total", "outcomes", "code", "ok", "fail")
	v.With("ok").Add(3)
	v.With("fail").Inc()
	v.With("unknown").Inc() // nil counter: must not panic, must not count
	snap := r.Snapshot()
	if got := snap.Counters[`tw_outcomes_total{code="ok"}`]; got != 3 {
		t.Fatalf(`ok series = %v, want 3`, got)
	}
	if got := snap.Counters[`tw_outcomes_total{code="fail"}`]; got != 1 {
		t.Fatalf(`fail series = %v, want 1`, got)
	}
	if len(snap.Counters) != 2 {
		t.Fatalf("snapshot has %d counter series, want 2: %v", len(snap.Counters), snap.Counters)
	}
}

func TestFuncInstruments(t *testing.T) {
	r := New()
	n := uint64(11)
	r.CounterFunc("tw_func_total", "func counter", func() uint64 { return n })
	r.GaugeFunc("tw_func_gauge", "func gauge", func() int64 { return -2 })
	snap := r.Snapshot()
	if snap.Counters["tw_func_total"] != 11 || snap.Gauges["tw_func_gauge"] != -2 {
		t.Fatalf("func instruments wrong: %+v", snap)
	}
}

func TestSpan(t *testing.T) {
	r := New()
	sp := r.Span("tw_stage", "a stage", nil)
	timer := sp.Start()
	snap := r.Snapshot()
	if got := snap.Gauges["tw_stage_active"]; got != 1 {
		t.Fatalf("active during span = %v, want 1", got)
	}
	timer.End()
	snap = r.Snapshot()
	if got := snap.Gauges["tw_stage_active"]; got != 0 {
		t.Fatalf("active after span = %v, want 0", got)
	}
	if got := snap.Histograms["tw_stage_duration_seconds"].Count; got != 1 {
		t.Fatalf("span duration count = %v, want 1", got)
	}
}

// TestNilSafety proves the disabled-telemetry path: a nil registry hands
// out nil instruments and every operation is a silent no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter counted")
	}
	r.Gauge("y", "").Set(3)
	r.Histogram("z", "", nil).Observe(1)
	r.CounterVec("v", "", "l", "a").With("a").Inc()
	r.CounterFunc("f", "", func() uint64 { return 1 })
	r.GaugeFunc("g", "", func() int64 { return 1 })
	timer := r.Span("s", "", nil).Start()
	timer.End()
	if err := r.WriteProm(&strings.Builder{}); err != nil {
		t.Fatalf("nil WriteProm: %v", err)
	}
	if snap := r.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("tw_clash", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("tw_clash", "")
}

// TestRegistryConcurrentHammer drives one registry from 16 writer
// goroutines while a reader snapshots and Prom-encodes concurrently; run
// under -race (make ci does) this is the data-race proof, and the final
// totals prove no update was lost to striping.
func TestRegistryConcurrentHammer(t *testing.T) {
	r := New()
	c := r.Counter("tw_hammer_total", "hammered counter")
	vec := r.CounterVec("tw_hammer_vec_total", "hammered vec", "w", "even", "odd")
	g := r.Gauge("tw_hammer_gauge", "hammered gauge")
	h := r.Histogram("tw_hammer_seconds", "hammered histogram", nil)
	sp := r.Span("tw_hammer_stage", "hammered span", nil)

	const (
		writers = 16
		perG    = 5000
	)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Snapshot()
			var sb strings.Builder
			if err := r.WriteProm(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			series := "even"
			if w%2 == 1 {
				series = "odd"
			}
			vc := vec.With(series)
			for i := 0; i < perG; i++ {
				c.Inc()
				vc.Inc()
				g.Add(1)
				h.Observe(float64(i%7) * 0.001)
				timer := sp.Start()
				timer.End()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := c.Value(); got != writers*perG {
		t.Fatalf("counter = %d, want %d (lost updates)", got, writers*perG)
	}
	snap := r.Snapshot()
	sum := snap.Counters[`tw_hammer_vec_total{w="even"}`] + snap.Counters[`tw_hammer_vec_total{w="odd"}`]
	if sum != writers*perG {
		t.Fatalf("vec sum = %v, want %d", sum, writers*perG)
	}
	if got := g.Value(); got != writers*perG {
		t.Fatalf("gauge = %d, want %d", got, writers*perG)
	}
	if got := h.Count(); got != writers*perG {
		t.Fatalf("histogram count = %d, want %d", got, writers*perG)
	}
	if got := snap.Gauges["tw_hammer_stage_active"]; got != 0 {
		t.Fatalf("active spans after quiesce = %v, want 0", got)
	}
}

// TestAllocBudget pins the hot-path contract: recording into any
// instrument allocates nothing. A regression here would show up as more
// metered-allocs/wave in BenchmarkMetricsOverhead too, but this test names
// the culprit directly.
func TestAllocBudget(t *testing.T) {
	r := New()
	c := r.Counter("tw_alloc_total", "")
	g := r.Gauge("tw_alloc_gauge", "")
	h := r.Histogram("tw_alloc_seconds", "", nil)
	sp := r.Span("tw_alloc_stage", "", nil)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(9) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Histogram.Observe", func() { h.Observe(0.004) }},
		{"Histogram.ObserveDuration", func() { h.ObserveDuration(3 * time.Millisecond) }},
		{"Span.Start+End", func() { sp.Start().End() }},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(200, tc.fn); got != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", tc.name, got)
		}
	}
}
