// Package simclock provides a virtual clock and a deterministic
// discrete-event scheduler. The Tripwire pilot study spans more than a
// calendar year (July 2014 – February 2017); simclock lets the whole
// timeline execute in milliseconds while preserving event ordering.
//
// Two execution modes share one event queue. The serial mode (Step, Run,
// RunUntil) fires events one at a time in (time, seq) order. The epoch mode
// (Epochs, in epoch.go) pops the whole frontier of events sharing the next
// timestamp and executes conflict-free partitions of it concurrently while
// producing bit-identical results — see epoch.go for the determinism
// argument.
package simclock

import (
	"fmt"
	"slices"
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

// event is a scheduled callback. Events with equal times fire in the order
// they were scheduled.
//
// An event is either serial (fn set) or keyed (kfn set, scheduled with
// AtKeyed/AfterKeyed). Serial events always run exclusively. Keyed events
// carry a conflict key; the epoch executor may run keyed events with
// different keys concurrently, while events sharing a key stay ordered.
//
// Its instant lives in its queue entry; the event keeps only the Location
// it was scheduled in, so the clock reads the event's time as it was given
// (a monotonic reading, meaningless on a virtual clock, is not kept).
type event struct {
	fn func(now time.Time)
	// kfn is the keyed callback. It receives an execution context instead
	// of a bare timestamp so that events it schedules are sequenced
	// deterministically even when the handler runs inside a parallel epoch.
	kfn func(*Exec)
	// key is the event's conflict key (see KeyFor). Key 0 means exclusive:
	// the event never runs concurrently with anything.
	key uint64
	loc *time.Location
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
func (s *Scheduler) push(t time.Time, ev *event) {
	e := entryFor(t, ev)
	e.seq = s.seq
	s.seq++
	s.pq.push(e)
}

// enqueue assigns sequence numbers to es in slice order and appends them to
// the queue's array; pushBatch then restores the heap.
func (s *Scheduler) enqueue(es []entry) {
	for _, e := range es {
		e.seq = s.seq
		s.seq++
		s.pq = append(s.pq, e)
	}
}

// pushBatch restores the heap over the entries enqueued since the queue
// held base. It is the bulk counterpart of push used by the epoch executor
// to flush a segment's deferred scheduling: appending the batch first and
// then restoring the heap in one pass beats independent sift-ups once the
// batch is a sizable fraction of the queue. The heap's internal layout
// never affects observable order — (instant, seq) is a strict total order —
// so either restoration strategy yields identical runs.
func (s *Scheduler) pushBatch(base int) {
	n := len(s.pq) - base
	if n == 0 {
		return
	}
	if n >= base/4 {
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

// popFrontier removes every event sharing the earliest pending instant and
// appends them to dst in (instant, seq) order — exactly the order repeated
// Step calls would have fired them. It returns the extended slice and the
// frontier time, as its first event was scheduled at. dst's backing array
// is reused across epochs by the caller.
func (s *Scheduler) popFrontier(dst []entry) ([]entry, time.Time) {
	if len(s.pq) == 0 {
		return dst, time.Time{}
	}
	first := len(dst)
	sec, nsec := s.pq[0].sec, s.pq[0].nsec
	for len(s.pq) > 0 && s.pq[0].sec == sec && s.pq[0].nsec == nsec {
		dst = append(dst, s.pq.popMin())
	}
	return dst, dst[first].time()
}

// At schedules fn to run at t. Scheduling in the past is allowed (the event
// fires immediately on the next Run step at the current clock time); this
// mirrors how a backlog of provider login dumps is processed on arrival.
func (s *Scheduler) At(t time.Time, fn func(now time.Time)) {
	s.push(t, &event{fn: fn})
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func(now time.Time)) {
	s.At(s.clock.Now().Add(d), fn)
}

// AtKeyed schedules a keyed event at t. Events with the same key are
// guaranteed to run in schedule order even under the epoch executor;
// events with different keys may run concurrently when their timestamps
// coincide. Key 0 makes the event exclusive.
func (s *Scheduler) AtKeyed(t time.Time, key uint64, fn func(*Exec)) {
	s.push(t, &event{kfn: fn, key: key})
}

// AfterKeyed schedules a keyed event d after the current virtual time.
func (s *Scheduler) AfterKeyed(d time.Duration, key uint64, fn func(*Exec)) {
	s.AtKeyed(s.clock.Now().Add(d), key, fn)
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
	return s.pq[0].time(), true
}

// fire invokes e's callback at the current clock time. Keyed events get a
// direct (unbuffered) Exec: outside an epoch there is nothing to defer for.
func (s *Scheduler) fire(e entry) {
	if e.ev.kfn != nil {
		e.ev.kfn(&Exec{s: s, now: s.clock.Now(), seq: e.seq})
		return
	}
	e.ev.fn(s.clock.Now())
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
	e := s.pq.popMin()
	s.clock.AdvanceTo(e.time())
	s.fire(e)
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
	end := entryAt(deadline)
	for len(s.pq) > 0 && !s.pq[0].after(&end) {
		s.Step()
		n++
	}
	s.trim()
	s.clock.AdvanceTo(deadline)
	return n
}

// trim gives back the queue's array when under a quarter of it is in use,
// as after a run drained a burst, so the burst's array does not stay live
// for the rest of the process. Only the RunUntil loops trim, once per call:
// an epoch that pops most of the queue and refills it never reallocates.
func (s *Scheduler) trim() {
	if len(s.pq) < cap(s.pq)/4 {
		s.pq = slices.Clone(s.pq)
	}
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
	deferred []entry
}

// Now returns the event's virtual time.
func (x *Exec) Now() time.Time { return x.now }

// Seq returns the event's sequence number. It is assigned in deterministic
// schedule order and is unique per scheduler, which makes it the canonical
// salt for deriving per-event RNG streams from the study seed.
func (x *Exec) Seq() uint64 { return x.seq }

// add routes a newly scheduled event: buffered inside an epoch segment,
// with its sort key taken on the handler's goroutine, straight to the
// queue otherwise.
func (x *Exec) add(t time.Time, ev *event) {
	if x.buffered {
		x.deferred = append(x.deferred, entryFor(t, ev))
		return
	}
	x.s.push(t, ev)
}

// At schedules a serial event at t.
func (x *Exec) At(t time.Time, fn func(now time.Time)) {
	x.add(t, &event{fn: fn})
}

// After schedules a serial event d after the event's own time.
func (x *Exec) After(d time.Duration, fn func(now time.Time)) {
	x.At(x.now.Add(d), fn)
}

// AtKeyed schedules a keyed event at t.
func (x *Exec) AtKeyed(t time.Time, key uint64, fn func(*Exec)) {
	x.add(t, &event{kfn: fn, key: key})
}

// AfterKeyed schedules a keyed event d after the event's own time.
func (x *Exec) AfterKeyed(d time.Duration, key uint64, fn func(*Exec)) {
	x.AtKeyed(x.now.Add(d), key, fn)
}

// entry is one queued event with its sort key inline: the event's instant
// as Unix seconds and nanoseconds, which spans every time.Time and treats
// one instant in any Location (or with a monotonic reading) as equal, and
// its sequence number. The heap compares and moves entries without reading
// the events they point to, so a sift touches only the queue's own array.
type entry struct {
	sec  int64
	nsec int32
	seq  uint64
	ev   *event
}

// entryFor returns the entry of ev scheduled at t, its sequence number not
// yet assigned, and records t's Location in ev.
func entryFor(t time.Time, ev *event) entry {
	ev.loc = t.Location()
	e := entryAt(t)
	e.ev = ev
	return e
}

// entryAt returns an entry holding t's instant.
func entryAt(t time.Time) entry {
	return entry{sec: t.Unix(), nsec: int32(t.Nanosecond())}
}

// before orders entries by (instant, seq).
func (e *entry) before(f *entry) bool {
	if e.sec != f.sec {
		return e.sec < f.sec
	}
	if e.nsec != f.nsec {
		return e.nsec < f.nsec
	}
	return e.seq < f.seq
}

// keyed reports whether e's event may run in a parallel segment.
func (e *entry) keyed() bool { return e.ev.kfn != nil && e.ev.key != 0 }

// after reports whether e's instant is after f's.
func (e *entry) after(f *entry) bool {
	return e.sec > f.sec || e.sec == f.sec && e.nsec > f.nsec
}

// time returns the time the entry's event was scheduled at.
func (e *entry) time() time.Time { return time.Unix(e.sec, int64(e.nsec)).In(e.ev.loc) }

// eventQueue is a binary min-heap of entries. It implements the sift
// operations directly rather than through container/heap: the queue is the
// single hottest data structure in the simulator and the interface
// indirection (plus the any boxing on Push/Pop) is measurable across the
// millions of events a study schedules. Sifts move a hole rather than
// swapping, so each level writes one entry.
type eventQueue []entry

// up restores the heap property for the entry at i, which may be smaller
// than its ancestors (after insertion at i).
func (q eventQueue) up(i int) {
	e := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

// down restores the heap property for the entry at i, which may be larger
// than its descendants.
func (q eventQueue) down(i int) {
	e := q[i]
	n := len(q)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&e) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = e
}

// push inserts e (seq already assigned) into the heap.
func (q *eventQueue) push(e entry) {
	*q = append(*q, e)
	q.up(len(*q) - 1)
}

// popMin removes and returns the minimum entry.
func (q *eventQueue) popMin() entry {
	old := *q
	min := old[0]
	last := len(old) - 1
	old[0] = old[last]
	old[last] = entry{}
	*q = old[:last]
	if last > 0 {
		(*q).down(0)
	}
	return min
}
