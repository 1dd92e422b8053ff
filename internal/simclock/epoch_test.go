package simclock

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"tripwire/internal/xrand"
)

// toyWorld is a miniature of the pilot's shared substrate: per-key state
// whose mutations must follow schedule order, plus an append-ordered global
// log that a Sequencer re-sequences per segment (the loginRing analogue).
type toyWorld struct {
	perKey [65][]string // index = conflict key; same-key order is observable

	mu     sync.Mutex
	global []string
	mark   int
}

func (w *toyWorld) BeginSegment() {
	w.mu.Lock()
	w.mark = len(w.global)
	w.mu.Unlock()
}

func (w *toyWorld) EndSegment() {
	w.mu.Lock()
	sort.Strings(w.global[w.mark:])
	w.mu.Unlock()
}

// record appends to the key's private log (no lock: the executor must be
// serializing same-key events — the race detector checks it) and to the
// shared global log (locked, re-sequenced by the Sequencer hooks).
func (w *toyWorld) record(key uint64, line string) {
	w.perKey[key] = append(w.perKey[key], line)
	w.mu.Lock()
	w.global = append(w.global, line)
	w.mu.Unlock()
}

// buildToyTimeline seeds a scheduler with a self-extending keyed workload:
// every handler logs (key, seq, now), and spawns follow-ups — mostly on its
// own key, sometimes on another — at hour-aligned delays so timestamps
// collide and epochs get width. All randomness derives from (seed, event
// seq), exactly the pilot's derivation rule.
func buildToyTimeline(s *Scheduler, w *toyWorld, seed int64, keys int) {
	var handler func(key uint64, depth int) func(*Exec)
	handler = func(key uint64, depth int) func(*Exec) {
		return func(x *Exec) {
			rng := xrand.New(xrand.Mix(seed, int64(x.Seq()), 1))
			w.record(key, fmt.Sprintf("k%02d seq%04d t%s d%d", key, x.Seq(), x.Now().Format("15:04"), depth))
			if depth >= 4 {
				return
			}
			if rng.Float64() < 0.8 {
				d := time.Duration(1+rng.Intn(4)) * time.Hour
				x.AfterKeyed(d, key, handler(key, depth+1))
			}
			if rng.Float64() < 0.3 {
				nk := uint64(1 + rng.Intn(keys))
				// Delay 0 lands at the event's own timestamp: it must fire
				// in a later epoch, after everything already pending there.
				d := time.Duration(rng.Intn(3)) * time.Hour
				x.AfterKeyed(d, nk, handler(nk, depth+1))
			}
		}
	}
	t0 := time.Date(2015, 4, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 4*keys; i++ {
		key := uint64(1 + i%keys)
		at := t0.Add(time.Duration(i%7) * time.Hour)
		s.AtKeyed(at, key, handler(key, 0))
	}
	// Serial barrier events interleaved at shared timestamps: they must
	// split segments without perturbing anything.
	for i := 0; i < 6; i++ {
		i := i
		s.At(t0.Add(time.Duration(i)*time.Hour), func(now time.Time) {
			w.record(0, fmt.Sprintf("barrier%d t%s", i, now.Format("15:04")))
		})
	}
}

func runToy(workers int) *toyWorld {
	s := NewScheduler(New(time.Date(2015, 4, 1, 0, 0, 0, 0, time.UTC)))
	w := &toyWorld{}
	buildToyTimeline(s, w, 99, 16)
	ex := &Epochs{Sched: s, Workers: workers, Sequencers: []Sequencer{w}}
	defer ex.Close()
	ex.RunUntil(time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC))
	return w
}

// TestEpochWorkerCountInvariance is the engine-level half of the timeline
// determinism guarantee: per-key logs, sequence numbers, timestamps, and
// the re-sequenced global log are byte-identical at any worker count.
func TestEpochWorkerCountInvariance(t *testing.T) {
	base := runToy(1)
	if len(base.global) == 0 {
		t.Fatal("toy timeline produced no events")
	}
	for _, workers := range []int{2, 4, 8} {
		got := runToy(workers)
		if !reflect.DeepEqual(base.perKey, got.perKey) {
			t.Fatalf("per-key logs diverge between workers=1 and workers=%d", workers)
		}
		if !reflect.DeepEqual(base.global, got.global) {
			t.Fatalf("global log diverges between workers=1 and workers=%d", workers)
		}
	}
}

// TestEpochMatchesSerialScheduler pins that epoch execution preserves the
// serial scheduler's event ordering semantics: the order-sensitive per-key
// logs from Epochs.RunUntil equal those from Scheduler-driven Step/RunUntil
// on the identical workload (the global log is compared per-key-free since
// serial execution has no segments to re-sequence).
func TestEpochMatchesSerialScheduler(t *testing.T) {
	serial := NewScheduler(New(time.Date(2015, 4, 1, 0, 0, 0, 0, time.UTC)))
	sw := &toyWorld{}
	buildToyTimeline(serial, sw, 99, 16)
	serial.RunUntil(time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC))

	epoch := runToy(4)
	if !reflect.DeepEqual(sw.perKey, epoch.perKey) {
		t.Fatal("per-key logs diverge between Scheduler.RunUntil and Epochs.RunUntil")
	}
}

// TestStarvationGuard pins the epoch loop's livelock defence: an event that
// reschedules at its own timestamp cannot grow the epoch it is part of. The
// requeue joins the heap, forms the next epoch (same virtual time, after
// every event already pending there), and RunEpoch keeps making progress —
// one frontier per call — exactly matching serial Step order.
func TestStarvationGuard(t *testing.T) {
	run := func(drive func(s *Scheduler, end time.Time) []int) []string {
		s := NewScheduler(New(t0))
		at := t0.Add(time.Hour)
		var order []string
		count := 0
		var requeue func(x *Exec)
		requeue = func(x *Exec) {
			order = append(order, fmt.Sprintf("requeue%d@%s", count, x.Now().Format("15:04")))
			count++
			if count < 5 {
				x.AtKeyed(x.Now(), 7, requeue) // same timestamp, again
			}
		}
		s.AtKeyed(at, 7, requeue)
		s.AtKeyed(at, 9, func(x *Exec) { order = append(order, "other") })
		s.At(at, func(time.Time) { order = append(order, "serial") })
		widths := drive(s, at)
		// The first epoch is the three originally pending events; each
		// requeue then forms its own width-1 epoch at the same timestamp.
		if widths != nil && !reflect.DeepEqual(widths, []int{3, 1, 1, 1, 1}) {
			t.Fatalf("epoch widths = %v, want [3 1 1 1 1]", widths)
		}
		if !s.Clock().Now().Equal(at) {
			t.Fatalf("clock at %v, want %v", s.Clock().Now(), at)
		}
		return order
	}

	epochOrder := run(func(s *Scheduler, end time.Time) []int {
		ex := &Epochs{Sched: s, Workers: 1}
		var widths []int
		for {
			n := ex.RunEpoch()
			if n == 0 {
				break
			}
			widths = append(widths, n)
		}
		return widths
	})
	serialOrder := run(func(s *Scheduler, end time.Time) []int {
		s.Run(100)
		return nil
	})
	want := []string{"requeue0@01:00", "other", "serial", "requeue1@01:00", "requeue2@01:00", "requeue3@01:00", "requeue4@01:00"}
	if !reflect.DeepEqual(epochOrder, want) {
		t.Fatalf("epoch order = %v, want %v", epochOrder, want)
	}
	if !reflect.DeepEqual(serialOrder, want) {
		t.Fatalf("serial order = %v, want %v", serialOrder, want)
	}
}

// TestEpochSerialEventsAreBarriers: a serial event between keyed events in
// one frontier sees every earlier keyed effect and none of the later ones.
func TestEpochSerialEventsAreBarriers(t *testing.T) {
	s := NewScheduler(New(t0))
	at := t0.Add(time.Hour)
	var mu sync.Mutex
	done := map[string]bool{}
	mark := func(name string) {
		mu.Lock()
		done[name] = true
		mu.Unlock()
	}
	for i := 0; i < 8; i++ {
		s.AtKeyed(at, uint64(1+i), func(x *Exec) { mark("pre") })
	}
	var sawPre, sawPost bool
	s.At(at, func(time.Time) {
		mu.Lock()
		sawPre, sawPost = done["pre"], done["post"]
		mu.Unlock()
	})
	for i := 0; i < 8; i++ {
		s.AtKeyed(at, uint64(1+i), func(x *Exec) { mark("post") })
	}
	ex := &Epochs{Sched: s, Workers: 8}
	defer ex.Close()
	if n := ex.RunEpoch(); n != 17 {
		t.Fatalf("epoch width = %d, want 17", n)
	}
	if !sawPre || sawPost {
		t.Fatalf("barrier saw pre=%v post=%v, want true/false", sawPre, sawPost)
	}
}

// TestEpochObserveStats checks the instrumentation contract: widths,
// segment and partition counts, and worker bounds add up.
func TestEpochObserveStats(t *testing.T) {
	s := NewScheduler(New(t0))
	at := t0.Add(time.Hour)
	for i := 0; i < 12; i++ {
		s.AtKeyed(at, uint64(1+i%4), func(x *Exec) {})
	}
	s.At(at, func(time.Time) {})
	var stats []EpochStats
	ex := &Epochs{Sched: s, Workers: 8, Observe: func(st EpochStats) { stats = append(stats, st) }}
	defer ex.Close()
	ex.RunEpoch()
	if len(stats) != 1 {
		t.Fatalf("observed %d epochs, want 1", len(stats))
	}
	st := stats[0]
	if st.Width != 13 || st.Segments != 1 || st.Partitions != 4 {
		t.Fatalf("stats = %+v, want width 13, 1 segment, 4 partitions", st)
	}
	if st.Workers != 4 {
		t.Fatalf("workers = %d, want 4 (bounded by partitions)", st.Workers)
	}
	if !st.At.Equal(at) {
		t.Fatalf("stats.At = %v, want %v", st.At, at)
	}
}

// TestEpochExecutorRaceHammer drives a wide, deep, self-extending keyed
// workload at 8 workers with lock-free per-key state, concurrent Clock.Now
// reads, and a live Sequencer + Observe hook. Its assertions are light; its
// job is to give the race detector (make race / make ci) surface area over
// the epoch executor's whole hot path.
func TestEpochExecutorRaceHammer(t *testing.T) {
	start := time.Date(2015, 4, 1, 0, 0, 0, 0, time.UTC)
	s := NewScheduler(New(start))
	w := &toyWorld{}
	var counters [65]int // per-key, mutated without locks
	var handler func(key uint64, depth int) func(*Exec)
	handler = func(key uint64, depth int) func(*Exec) {
		return func(x *Exec) {
			if !x.Now().Equal(s.Clock().Now()) { // concurrent atomic clock read
				t.Error("Exec.Now disagrees with clock during epoch")
			}
			counters[key]++
			w.record(key, fmt.Sprintf("k%02d %04d", key, counters[key]))
			rng := xrand.New(xrand.Mix(3, int64(x.Seq()), 2))
			if depth < 6 && rng.Float64() < 0.85 {
				x.AfterKeyed(time.Duration(rng.Intn(5))*time.Hour, key, handler(key, depth+1))
			}
		}
	}
	for i := 0; i < 256; i++ {
		key := uint64(1 + i%64)
		s.AtKeyed(start.Add(time.Duration(i%5)*time.Hour), key, handler(key, 0))
	}
	events := 0
	ex := &Epochs{Sched: s, Workers: 8, Sequencers: []Sequencer{w}, Observe: func(st EpochStats) { events += st.Width }}
	defer ex.Close()
	ex.RunUntil(start.Add(90 * 24 * time.Hour))
	if events < 256 || len(w.global) != events {
		t.Fatalf("hammer fired %d events, global log %d", events, len(w.global))
	}
}
