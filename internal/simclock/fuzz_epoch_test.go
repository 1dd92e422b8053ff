package simclock

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"tripwire/internal/xrand"
)

// buildFuzzTimeline seeds s with a workload derived entirely from data:
// serial events, keyed events (including exclusive key-0 ones), and
// handlers that re-schedule on their own key — sometimes at their own
// timestamp, the starvation-guard edge — cross-schedule onto other keys,
// or spawn serial follow-ups. Every follow-up decision derives from
// (seed, event seq), the pilot's derivation rule, so the workload is the
// same however the events are executed. Returns how many seed events were
// scheduled.
func buildFuzzTimeline(s *Scheduler, w *toyWorld, data []byte) int {
	const seed = 1234
	var keyed func(key uint64, depth int) func(*Exec)
	keyed = func(key uint64, depth int) func(*Exec) {
		return func(x *Exec) {
			w.record(key, fmt.Sprintf("k%d seq%05d t%s", key, x.Seq(), x.Now().Format("01-02 15:04")))
			if depth >= 3 {
				return
			}
			rng := xrand.New(xrand.Mix(seed, int64(x.Seq()), 5))
			if rng.Float64() < 0.7 {
				// Delay 0 reschedules at the event's own timestamp: the
				// requeue must land in a later epoch at the same time.
				d := time.Duration(rng.Intn(3)) * time.Hour
				x.AtKeyed(x.Now().Add(d), key, keyed(key, depth+1))
			}
			if rng.Float64() < 0.4 {
				nk := uint64(rng.Intn(9)) // 0 = exclusive
				x.AtKeyed(x.Now().Add(time.Duration(1+rng.Intn(5))*time.Hour), nk, keyed(nk, depth+1))
			}
			if rng.Float64() < 0.2 {
				from := x.Seq()
				x.After(time.Duration(rng.Intn(4))*time.Hour, func(now time.Time) {
					w.record(0, fmt.Sprintf("serial-from-%05d t%s", from, now.Format("01-02 15:04")))
				})
			}
		}
	}
	n := 0
	for i := 0; i+2 < len(data) && n < 48; i += 3 {
		kind := data[i] % 4
		key := uint64(data[i+1] % 9)
		at := t0.Add(time.Duration(data[i+2]%12) * time.Hour)
		if kind == 0 {
			i := i
			s.At(at, func(now time.Time) {
				w.record(0, fmt.Sprintf("serial%d t%s", i, now.Format("01-02 15:04")))
			})
		} else {
			s.AtKeyed(at, key, keyed(key, 0))
		}
		n++
	}
	return n
}

// FuzzEpochEquivalence is the engine's property test: for arbitrary mixes
// of keyed, serial, and self-rescheduling events, epoch execution at every
// worker count produces the same per-key fire order, the same assigned
// sequence numbers, the same fired-event count, and the same final clock
// as the serial Scheduler — and the segment-re-sequenced global log is
// identical across worker counts.
func FuzzEpochEquivalence(f *testing.F) {
	f.Add([]byte{1, 1, 0, 1, 2, 0, 1, 3, 1, 0, 0, 1, 1, 1, 2})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0}) // exclusive + serial pileup at t0
	f.Add([]byte{1, 1, 5, 1, 1, 5, 1, 1, 5, 1, 1, 5}) // one hot key
	f.Add([]byte{2, 1, 0, 2, 2, 1, 2, 3, 2, 2, 4, 3, 2, 5, 4, 2, 6, 5, 2, 7, 6, 2, 8, 7})
	f.Add([]byte{3, 250, 11, 3, 47, 11, 0, 9, 11, 1, 200, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		end := t0.Add(60 * 24 * time.Hour)
		run := func(workers int) (w *toyWorld, fired int, seq uint64, clk time.Time) {
			s := NewScheduler(New(t0))
			w = &toyWorld{}
			if buildFuzzTimeline(s, w, data) == 0 {
				return nil, 0, 0, time.Time{}
			}
			if workers == 0 {
				fired = s.RunUntil(end)
			} else {
				ex := &Epochs{Sched: s, Workers: workers, Sequencers: []Sequencer{w}}
				fired = ex.RunUntil(end)
				ex.Close()
			}
			return w, fired, s.Seq(), s.Clock().Now()
		}
		serialW, sFired, sSeq, sClk := run(0)
		if serialW == nil {
			t.Skip("input encodes no events")
		}
		var baseGlobal []string
		for _, workers := range []int{1, 2, 4, 8, 16} {
			w, fired, seq, clk := run(workers)
			if fired != sFired || seq != sSeq || !clk.Equal(sClk) {
				t.Fatalf("workers=%d: fired/seq/clock = %d/%d/%v, serial = %d/%d/%v",
					workers, fired, seq, clk, sFired, sSeq, sClk)
			}
			if !reflect.DeepEqual(serialW.perKey, w.perKey) {
				t.Fatalf("workers=%d: per-key logs diverge from serial execution", workers)
			}
			if workers == 1 {
				baseGlobal = w.global
			} else if !reflect.DeepEqual(baseGlobal, w.global) {
				t.Fatalf("workers=%d: re-sequenced global log diverges from workers=1", workers)
			}
		}
	})
}
