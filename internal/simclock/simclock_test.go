package simclock

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)

func TestClockAdvance(t *testing.T) {
	c := New(t0)
	if !c.Now().Equal(t0) {
		t.Fatalf("Now() = %v, want %v", c.Now(), t0)
	}
	c.Advance(90 * time.Minute)
	want := t0.Add(90 * time.Minute)
	if !c.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", c.Now(), want)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	New(t0).Advance(-time.Second)
}

func TestClockAdvanceToIsMonotonic(t *testing.T) {
	c := New(t0)
	c.AdvanceTo(t0.Add(time.Hour))
	c.AdvanceTo(t0) // earlier: no-op
	if !c.Now().Equal(t0.Add(time.Hour)) {
		t.Fatalf("AdvanceTo moved clock backwards to %v", c.Now())
	}
}

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler(New(t0))
	var got []string
	s.At(t0.Add(3*time.Hour), func(time.Time) { got = append(got, "c") })
	s.At(t0.Add(1*time.Hour), func(time.Time) { got = append(got, "a") })
	s.At(t0.Add(2*time.Hour), func(time.Time) { got = append(got, "b") })
	if n := s.Run(100); n != 3 {
		t.Fatalf("Run fired %d events, want 3", n)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

func TestSchedulerTieBreakIsFIFO(t *testing.T) {
	s := NewScheduler(New(t0))
	at := t0.Add(time.Hour)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(at, func(time.Time) { got = append(got, i) })
	}
	s.Run(100)
	if !sort.IntsAreSorted(got) {
		t.Fatalf("equal-time events fired out of scheduling order: %v", got)
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler(New(t0))
	fired := 0
	for i := 1; i <= 10; i++ {
		s.At(t0.Add(time.Duration(i)*time.Hour), func(time.Time) { fired++ })
	}
	n := s.RunUntil(t0.Add(5 * time.Hour))
	if n != 5 || fired != 5 {
		t.Fatalf("RunUntil fired %d (%d), want 5", n, fired)
	}
	if !s.Clock().Now().Equal(t0.Add(5 * time.Hour)) {
		t.Fatalf("clock at %v, want deadline", s.Clock().Now())
	}
	if s.Len() != 5 {
		t.Fatalf("pending = %d, want 5", s.Len())
	}
}

// TestRunUntilTrimsDrainedQueue checks that both RunUntil loops give back
// the array of a burst they drained, and keep the events still pending.
func TestRunUntilTrimsDrainedQueue(t *testing.T) {
	for _, epochs := range []bool{false, true} {
		s := NewScheduler(New(t0))
		for i := 0; i < 4096; i++ {
			s.AtKeyed(t0.Add(time.Duration(i%64)*time.Minute), uint64(i%7+1), func(*Exec) {})
		}
		late := false
		s.At(t0.Add(48*time.Hour), func(time.Time) { late = true })
		deadline := t0.Add(24 * time.Hour)
		if epochs {
			ex := &Epochs{Sched: s, Workers: 2}
			ex.RunUntil(deadline)
			ex.Close()
		} else {
			s.RunUntil(deadline)
		}
		if s.Len() != 1 || cap(s.pq) > 4 {
			t.Fatalf("epochs=%v: %d pending in an array of %d after the burst drained", epochs, s.Len(), cap(s.pq))
		}
		s.Run(10)
		if !late {
			t.Fatalf("epochs=%v: the pending event was lost by the trim", epochs)
		}
	}
}

func TestSchedulerRunUntilAdvancesToDeadlineWhenEmpty(t *testing.T) {
	s := NewScheduler(New(t0))
	deadline := t0.Add(24 * time.Hour)
	s.RunUntil(deadline)
	if !s.Clock().Now().Equal(deadline) {
		t.Fatalf("clock at %v, want %v", s.Clock().Now(), deadline)
	}
}

func TestSchedulerEventsMaySchedule(t *testing.T) {
	s := NewScheduler(New(t0))
	count := 0
	var tick func(now time.Time)
	tick = func(now time.Time) {
		count++
		if count < 5 {
			s.After(time.Hour, tick)
		}
	}
	s.After(time.Hour, tick)
	s.Run(100)
	if count != 5 {
		t.Fatalf("self-scheduling chain ran %d times, want 5", count)
	}
	if got, want := s.Clock().Now(), t0.Add(5*time.Hour); !got.Equal(want) {
		t.Fatalf("clock = %v, want %v", got, want)
	}
}

func TestSchedulerRunawayGuard(t *testing.T) {
	s := NewScheduler(New(t0))
	var loop func(now time.Time)
	loop = func(now time.Time) { s.After(time.Second, loop) }
	s.After(time.Second, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("expected runaway-schedule panic")
		}
	}()
	s.Run(50)
}

func TestSchedulerPastEventFiresAtCurrentTime(t *testing.T) {
	c := New(t0)
	c.Advance(10 * time.Hour)
	s := NewScheduler(c)
	var at time.Time
	s.At(t0, func(now time.Time) { at = now })
	s.Run(10)
	if !at.Equal(t0.Add(10 * time.Hour)) {
		t.Fatalf("past event saw now=%v, want current clock", at)
	}
}

// Property: any batch of events fires in nondecreasing time order.
func TestQuickFiringOrderMonotonic(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewScheduler(New(t0))
		var fired []time.Time
		for _, off := range offsets {
			at := t0.Add(time.Duration(off) * time.Second)
			s.At(at, func(now time.Time) { fired = append(fired, now) })
		}
		s.Run(len(offsets) + 1)
		for i := 1; i < len(fired); i++ {
			if fired[i].Before(fired[i-1]) {
				return false
			}
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
