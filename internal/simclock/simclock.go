// Package simclock provides a virtual clock and a deterministic
// discrete-event scheduler. The Tripwire pilot study spans more than a
// calendar year (July 2014 – February 2017); simclock lets the whole
// timeline execute in milliseconds while preserving event ordering.
//
// Two execution modes share one event queue. The serial mode (Step, Run,
// RunUntil) fires events one at a time in (At, seq) order. The epoch mode
// (Epochs, in epoch.go) pops the whole frontier of events sharing the next
// timestamp and executes conflict-free partitions of it concurrently while
// producing bit-identical results — see epoch.go for the determinism
// argument.
package simclock

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a virtual clock. The zero value is not useful; construct with
// New.
//
// Reads (Now) are safe from any goroutine: the current time is an atomic
// snapshot, so event handlers running concurrently inside an epoch — and
// the Now-plumbing they reach in webgen, emailprovider, and core — observe
// a stable value without locking. Writes (Advance, AdvanceTo) remain the
// business of the single simulation driver; the clock only ever moves
// between epochs, never while handlers run.
type Clock struct {
	now atomic.Pointer[time.Time]
}

// New returns a Clock set to start.
func New(start time.Time) *Clock {
	c := &Clock{}
	c.now.Store(&start)
	return c
}

// Now returns the current virtual time. Safe for concurrent use.
func (c *Clock) Now() time.Time { return *c.now.Load() }

// Advance moves the clock forward by d. Advance panics if d is negative:
// virtual time never runs backwards.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative advance %v", d))
	}
	t := c.Now().Add(d)
	c.now.Store(&t)
}

// AdvanceTo moves the clock forward to t. It is a no-op if t is not after
// the current time, so callers may replay an already-sorted event stream
// without checking.
func (c *Clock) AdvanceTo(t time.Time) {
	if t.After(c.Now()) {
		c.now.Store(&t)
	}
}

// Event is a scheduled callback. Events with equal times fire in the order
// they were scheduled.
//
// An event is either serial (Fn set) or keyed (KFn set, scheduled with
// AtKeyed/AfterKeyed). Serial events always run exclusively. Keyed events
// carry a conflict key; the epoch executor may run keyed events with
// different keys concurrently, while events sharing a key stay ordered.
type Event struct {
	At time.Time
	Fn func(now time.Time)

	// KFn is the keyed callback. It receives an execution context instead
	// of a bare timestamp so that events it schedules are sequenced
	// deterministically even when the handler runs inside a parallel epoch.
	KFn func(*Exec)
	// Key is the event's conflict key (see KeyFor). Key 0 means exclusive:
	// the event never runs concurrently with anything.
	Key uint64

	seq   uint64
	index int
}

// KeyFor maps an identifier (a site domain, an account email) onto one of
// 256 conflict-key shards, numbered 1..256 so that 0 stays reserved for
// exclusive events (FNV-1a, folded). Events about the same domain or
// account always collide and therefore stay mutually ordered. Distinct
// identifiers may also collide; that only serializes their execution
// inside an epoch, it never reorders observable output — which is why the
// fold width is a pure throughput knob: 256 shards keep false conflicts
// rare enough that wide epochs saturate a 16-worker pool.
func KeyFor(id string) uint64 {
	const offset64, prime64 = 14695981039866320922, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h&255 + 1
}

// Scheduler is a deterministic discrete-event scheduler driving a Clock.
type Scheduler struct {
	clock *Clock
	pq    eventQueue
	seq   uint64
}

// NewScheduler returns a Scheduler driving clock.
func NewScheduler(clock *Clock) *Scheduler {
	return &Scheduler{clock: clock}
}

// Clock returns the scheduler's clock.
func (s *Scheduler) Clock() *Clock { return s.clock }

// push assigns the next sequence number and queues ev. Scheduling order is
// the tiebreak for equal times, so push must only ever run on the driver
// goroutine — parallel epoch handlers defer their scheduling through Exec
// buffers that the executor flushes in frontier order.
func (s *Scheduler) push(ev *Event) *Event {
	ev.seq = s.seq
	s.seq++
	s.pq.push(ev)
	return ev
}

// pushBatch assigns sequence numbers to evs in slice order and queues them
// all. It is the bulk counterpart of push used by the epoch executor to
// flush a segment's deferred scheduling: appending the batch first and then
// restoring the heap in one pass beats len(evs) independent sift-ups once
// the batch is a sizable fraction of the queue. The heap's internal layout
// never affects observable order — (At, seq) is a strict total order — so
// either restoration strategy yields identical runs.
func (s *Scheduler) pushBatch(evs []*Event) {
	if len(evs) == 0 {
		return
	}
	base := len(s.pq)
	for _, ev := range evs {
		ev.seq = s.seq
		s.seq++
		ev.index = len(s.pq)
		s.pq = append(s.pq, ev)
	}
	if len(evs) >= base/4 {
		// Bottom-up heapify: O(n+m) beats m sift-ups of O(log n) each.
		for i := len(s.pq)/2 - 1; i >= 0; i-- {
			s.pq.down(i)
		}
		return
	}
	for i := base; i < len(s.pq); i++ {
		s.pq.up(i)
	}
}

// popFrontier removes every event sharing the earliest pending timestamp
// and appends them to dst in (At, seq) order — exactly the order repeated
// Step calls would have fired them. It returns the extended slice and the
// frontier timestamp. dst's backing array is reused across epochs by the
// caller.
func (s *Scheduler) popFrontier(dst []*Event) ([]*Event, time.Time) {
	if len(s.pq) == 0 {
		return dst, time.Time{}
	}
	at := s.pq[0].At
	for len(s.pq) > 0 && s.pq[0].At.Equal(at) {
		dst = append(dst, s.pq.popMin())
	}
	return dst, at
}

// At schedules fn to run at t. Scheduling in the past is allowed (the event
// fires immediately on the next Run step at the current clock time); this
// mirrors how a backlog of provider login dumps is processed on arrival.
func (s *Scheduler) At(t time.Time, fn func(now time.Time)) *Event {
	return s.push(&Event{At: t, Fn: fn})
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func(now time.Time)) *Event {
	return s.At(s.clock.Now().Add(d), fn)
}

// AtKeyed schedules a keyed event at t. Events with the same key are
// guaranteed to run in schedule order even under the epoch executor;
// events with different keys may run concurrently when their timestamps
// coincide. Key 0 makes the event exclusive.
func (s *Scheduler) AtKeyed(t time.Time, key uint64, fn func(*Exec)) *Event {
	return s.push(&Event{At: t, KFn: fn, Key: key})
}

// AfterKeyed schedules a keyed event d after the current virtual time.
func (s *Scheduler) AfterKeyed(d time.Duration, key uint64, fn func(*Exec)) *Event {
	return s.AtKeyed(s.clock.Now().Add(d), key, fn)
}

// Cancel removes ev from the queue. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false. Events scheduled
// from inside a parallel epoch handler are not cancellable until the epoch
// that scheduled them has finished (they sit in the handler's deferred
// buffer, not the queue).
func (s *Scheduler) Cancel(ev *Event) bool {
	if ev == nil || ev.index < 0 || ev.index >= len(s.pq) || s.pq[ev.index] != ev {
		return false
	}
	s.pq.remove(ev.index)
	return true
}

// Len reports the number of pending events.
func (s *Scheduler) Len() int { return len(s.pq) }

// Seq returns the next sequence number the scheduler will assign. It is a
// progress fingerprint: two runs of the same study that have assigned the
// same Seq have scheduled exactly the same events, so checkpoints record
// it and resume verifies it.
func (s *Scheduler) Seq() uint64 { return s.seq }

// NextAt returns the time of the earliest pending event. ok is false when
// the queue is empty. Drivers use it to decide whether to keep stepping —
// e.g. checking a context between events without disturbing the queue.
func (s *Scheduler) NextAt() (at time.Time, ok bool) {
	if len(s.pq) == 0 {
		return time.Time{}, false
	}
	return s.pq[0].At, true
}

// fire invokes ev's callback at the current clock time. Keyed events get a
// direct (unbuffered) Exec: outside an epoch there is nothing to defer for.
func (s *Scheduler) fire(ev *Event) {
	if ev.KFn != nil {
		ev.KFn(&Exec{s: s, now: s.clock.Now(), seq: ev.seq})
		return
	}
	ev.Fn(s.clock.Now())
}

// Step fires the earliest pending event, advancing the clock to its time.
// It reports whether an event fired.
//
// A callback may schedule new events at its own timestamp ("now"); they are
// queued behind every already-pending event at that timestamp (sequence
// order breaks the tie) and fire on later Steps. Step itself therefore
// always makes progress — one pop per call — and cannot livelock however
// the callback reschedules; the same holds for the epoch executor, which
// snapshots the frontier before running it (see Epochs.RunEpoch).
func (s *Scheduler) Step() bool {
	if len(s.pq) == 0 {
		return false
	}
	ev := s.pq.popMin()
	s.clock.AdvanceTo(ev.At)
	s.fire(ev)
	return true
}

// RunUntil fires events in order until the queue is empty or the next event
// is after deadline. The clock is left at deadline if it ran dry earlier
// than deadline, so subsequent After() calls measure from the deadline.
// It returns the number of events fired.
//
// Callbacks that keep scheduling at their own timestamp extend the loop:
// RunUntil fires them too (they are not after deadline), so a handler that
// unconditionally reschedules "at now" forever will spin. That is a
// runaway schedule, the same bug Run's maxEvents guard exists for — drive
// suspect schedules with Run, or bound them with Epochs.RunUntil plus an
// epoch budget in the driver. TestStarvationGuard pins the exact semantics.
func (s *Scheduler) RunUntil(deadline time.Time) int {
	n := 0
	for len(s.pq) > 0 && !s.pq[0].At.After(deadline) {
		s.Step()
		n++
	}
	s.clock.AdvanceTo(deadline)
	return n
}

// Run fires all pending events, including ones scheduled by fired events.
// It returns the number of events fired. Run panics after maxEvents events
// as a guard against runaway self-scheduling loops.
func (s *Scheduler) Run(maxEvents int) int {
	n := 0
	for s.Step() {
		n++
		if n >= maxEvents {
			panic(fmt.Sprintf("simclock: exceeded %d events; runaway schedule?", maxEvents))
		}
	}
	return n
}

// Exec is the execution context handed to a keyed event's callback. It
// supplies the event's virtual time, its sequence number (the seed salt for
// per-event RNG derivation), and scheduling methods.
//
// When the event runs inside a parallel epoch segment, scheduling through
// Exec is buffered: the new events are held until the segment completes and
// are then pushed in frontier order, so sequence numbers — and therefore
// all future tie-breaking — are identical to what serial execution would
// have assigned, at any worker count. Outside an epoch (Step/Run/RunUntil)
// Exec schedules directly.
type Exec struct {
	s        *Scheduler
	now      time.Time
	seq      uint64
	buffered bool
	deferred []*Event
}

// Now returns the event's virtual time.
func (x *Exec) Now() time.Time { return x.now }

// Seq returns the event's sequence number. It is assigned in deterministic
// schedule order and is unique per scheduler, which makes it the canonical
// salt for deriving per-event RNG streams from the study seed.
func (x *Exec) Seq() uint64 { return x.seq }

// add routes a newly scheduled event: buffered inside an epoch segment,
// straight to the queue otherwise.
func (x *Exec) add(ev *Event) {
	if x.buffered {
		x.deferred = append(x.deferred, ev)
		return
	}
	x.s.push(ev)
}

// At schedules a serial event at t.
func (x *Exec) At(t time.Time, fn func(now time.Time)) {
	x.add(&Event{At: t, Fn: fn})
}

// After schedules a serial event d after the event's own time.
func (x *Exec) After(d time.Duration, fn func(now time.Time)) {
	x.At(x.now.Add(d), fn)
}

// AtKeyed schedules a keyed event at t.
func (x *Exec) AtKeyed(t time.Time, key uint64, fn func(*Exec)) {
	x.add(&Event{At: t, KFn: fn, Key: key})
}

// AfterKeyed schedules a keyed event d after the event's own time.
func (x *Exec) AfterKeyed(d time.Duration, key uint64, fn func(*Exec)) {
	x.AtKeyed(x.now.Add(d), key, fn)
}

// eventQueue is a min-heap over (At, seq). It implements the sift
// operations directly rather than through container/heap: the queue is the
// single hottest data structure in the simulator and the interface
// indirection (plus the any boxing on Push/Pop) is measurable across the
// millions of events a study schedules.
type eventQueue []*Event

func (q eventQueue) less(i, j int) bool {
	if !q[i].At.Equal(q[j].At) {
		return q[i].At.Before(q[j].At)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

// up restores the heap property for an element that may be smaller than its
// ancestors (after insertion at i).
func (q eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// down restores the heap property for an element that may be larger than
// its descendants. It reports whether the element moved.
func (q eventQueue) down(i int) bool {
	start := i
	n := len(q)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q.less(r, child) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q.swap(i, child)
		i = child
	}
	return i > start
}

// push inserts ev (seq already assigned) into the heap.
func (q *eventQueue) push(ev *Event) {
	ev.index = len(*q)
	*q = append(*q, ev)
	q.up(ev.index)
}

// popMin removes and returns the minimum element.
func (q *eventQueue) popMin() *Event {
	old := *q
	ev := old[0]
	last := len(old) - 1
	old.swap(0, last)
	old[last] = nil
	*q = old[:last]
	if last > 0 {
		(*q).down(0)
	}
	ev.index = -1
	return ev
}

// remove deletes the element at index i (used by Cancel).
func (q *eventQueue) remove(i int) {
	old := *q
	last := len(old) - 1
	ev := old[i]
	if i != last {
		old.swap(i, last)
	}
	old[last] = nil
	*q = old[:last]
	if i != last {
		if !(*q).down(i) {
			(*q).up(i)
		}
	}
	ev.index = -1
}
