package simclock

import (
	"slices"
	"testing"
	"time"

	"tripwire/internal/xrand"
)

// orderPalette is the instants FuzzSchedulerOrder schedules at: the clock
// starts at t0, so the zero time, year 1 and t0-1h lie in the past; year 1
// and year 2300 lie outside the int64-nanosecond range; and several
// instants recur in other Locations, which must not split them.
func orderPalette() []time.Time {
	east := time.FixedZone("UTC+5", 5*3600)
	west := time.FixedZone("UTC-8", -8*3600)
	far := time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)
	return []time.Time{
		{},
		time.Date(1, 6, 1, 0, 0, 0, 0, time.UTC),
		t0.Add(-time.Hour),
		t0,
		t0.In(east),
		t0.Add(time.Nanosecond),
		t0.Add(time.Hour).In(west),
		t0.Add(time.Hour),
		far,
		far.In(east),
		far.Add(time.Nanosecond),
	}
}

// orderEvent is the oracle's record of one scheduled event.
type orderEvent struct {
	id  int
	seq int
	at  time.Time
}

// byInstantSeq orders events by (instant, seq), whatever their Location.
func byInstantSeq(a, b orderEvent) int {
	if c := a.at.Compare(b.at); c != 0 {
		return c
	}
	return a.seq - b.seq
}

// FuzzSchedulerOrder checks the queue against an oracle: Step, RunUntil
// and Epochs.RunEpoch must fire a random schedule in the order of a stable
// sort by (instant, seq), where seq is the order events entered the queue,
// and each handler must see the clock at the latest instant fired so far,
// in the Location of the first event fired at it.
// Each input byte schedules one event at a palette instant, serial or
// exclusive keyed, either directly or through a pushBatch flush, so both
// of pushBatch's restoration paths run: heapify when the batch is at least
// a quarter of the queue, sift-up otherwise. The schedule runs in two
// phases — up to a deadline, then to the end — and the second phase's
// events may lie before the clock the first phase left. RunEpoch must
// fire each instant as one frontier, in every Location it was scheduled
// in.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{7, 14, 15, 25, 26, 36, 37, 47, 48, 58, 59, 69, 70, 80, 81})
	// Thirty direct pushes, then a batch of three: sift-up.
	f.Add(append([]byte{8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 3, 4, 3, 4, 3, 4, 7, 6}, 11, 15, 19))
	// Three direct pushes, then batches of ten and eight: heapify.
	f.Add([]byte{5, 3, 4, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 22, 23, 24, 25, 26, 27, 28, 29})
	f.Add([]byte{0, 0, 1, 2, 11, 12, 13, 22, 23, 24})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			t.Skip("input encodes no schedule")
		}
		pal := orderPalette()
		mid := pal[int(data[0])%len(pal)]
		end := time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)
		data = data[1:]
		for _, mode := range []string{"Step", "RunUntil", "RunEpoch"} {
			s := NewScheduler(New(t0))
			ex := &Epochs{Sched: s, Workers: 1}
			var fired []int
			var nows []time.Time
			var pending []orderEvent
			var widths []int
			nextID := 0
			schedule := func(part []byte) {
				var batch []entry
				var batchEvs []orderEvent
				flush := func() {
					for i := range batchEvs {
						batchEvs[i].seq = int(s.Seq()) + i
					}
					base := s.Len()
					s.enqueue(batch)
					s.pushBatch(base)
					pending = append(pending, batchEvs...)
					batch, batchEvs = nil, nil
				}
				for _, b := range part {
					oe := orderEvent{id: nextID, at: pal[int(b)%len(pal)]}
					nextID++
					id := oe.id
					record := func(now time.Time) {
						fired = append(fired, id)
						nows = append(nows, now)
					}
					ev := &event{fn: record}
					if b&0x80 != 0 {
						ev = &event{kfn: func(x *Exec) { record(x.Now()) }}
					}
					switch (int(b) / len(pal)) % 3 {
					case 0:
						oe.seq = int(s.Seq())
						if ev.kfn != nil {
							s.AtKeyed(oe.at, 0, ev.kfn)
						} else {
							s.At(oe.at, ev.fn)
						}
						pending = append(pending, oe)
						continue
					case 2:
						flush()
					}
					batch = append(batch, entryFor(oe.at, ev))
					batchEvs = append(batchEvs, oe)
				}
				flush()
			}
			run := func(deadline time.Time) {
				switch mode {
				case "Step":
					for {
						at, ok := s.NextAt()
						if !ok || at.After(deadline) {
							break
						}
						s.Step()
					}
					s.Clock().AdvanceTo(deadline)
				case "RunUntil":
					s.RunUntil(deadline)
				case "RunEpoch":
					for {
						at, ok := s.NextAt()
						if !ok || at.After(deadline) {
							break
						}
						widths = append(widths, ex.RunEpoch())
					}
					s.Clock().AdvanceTo(deadline)
				}
			}

			var want []orderEvent
			var wantWidths []int
			var wantNows []time.Time
			cur := t0
			expect := func(deadline time.Time) {
				slices.SortStableFunc(pending, byInstantSeq)
				k := 0
				for k < len(pending) && !pending[k].at.After(deadline) {
					if k == 0 || !pending[k].at.Equal(pending[k-1].at) {
						wantWidths = append(wantWidths, 0)
					}
					wantWidths[len(wantWidths)-1]++
					if pending[k].at.After(cur) {
						cur = pending[k].at
					}
					wantNows = append(wantNows, cur)
					k++
				}
				want = append(want, pending[:k]...)
				pending = slices.Clone(pending[k:])
				if deadline.After(cur) {
					cur = deadline
				}
			}

			half := len(data) / 2
			schedule(data[:half])
			expect(mid)
			run(mid)
			schedule(data[half:])
			expect(end)
			run(end)
			ex.Close()

			wantIDs := make([]int, len(want))
			for i, oe := range want {
				wantIDs[i] = oe.id
			}
			if !slices.Equal(fired, wantIDs) {
				t.Fatalf("%s fired %v, want %v", mode, fired, wantIDs)
			}
			for i := range nows {
				if nows[i] != wantNows[i] {
					t.Fatalf("%s: event %d saw now=%v, want %v", mode, fired[i], nows[i], wantNows[i])
				}
			}
			if mode == "RunEpoch" && !slices.Equal(widths, wantWidths) {
				t.Fatalf("RunEpoch frontier widths %v, want %v", widths, wantWidths)
			}
			if s.Len() != 0 || int(s.Seq()) != nextID {
				t.Fatalf("%s: %d events left, seq %d after %d scheduled", mode, s.Len(), s.Seq(), nextID)
			}
			if !s.Clock().Now().Equal(cur) {
				t.Fatalf("%s: clock at %v, want %v", mode, s.Clock().Now(), cur)
			}
		}
	})
}

// BenchmarkPopFrontier measures the driver's serial queue work per event
// on a queue shaped like the stuffing timeline's: 300,000 pending keyed
// events on an hourly grid over 180 days, about 70 to an instant. Each
// iteration pops one frontier and pushes as many events back through
// pushBatch, each at a later hour within 30 days, as a segment's deferred
// flush would; the events are reused, so the figures are the queue's own.
func BenchmarkPopFrontier(b *testing.B) {
	const pending, hours = 300_000, 180 * 24
	s := NewScheduler(New(t0))
	rng := xrand.New(1)
	fn := func(*Exec) {}
	for i := 0; i < pending; i++ {
		s.AtKeyed(t0.Add(time.Duration(rng.Intn(hours))*time.Hour), 1, fn)
	}
	var frontier, batch []entry
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var at time.Time
		frontier, at = s.popFrontier(frontier[:0])
		batch = batch[:0]
		for _, e := range frontier {
			batch = append(batch, entryFor(at.Add(time.Duration(1+rng.Intn(30*24))*time.Hour), e.ev))
		}
		base := s.Len()
		s.enqueue(batch)
		s.pushBatch(base)
		events += len(frontier)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
