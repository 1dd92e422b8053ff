package simclock

import (
	"sync"
	"sync/atomic"
	"time"
)

// The epoch-parallel executor. An epoch is the frontier of pending events
// that share the earliest timestamp. RunEpoch pops the whole frontier,
// advances the clock once, and executes the frontier in segments:
//
//   - serial events (Fn, or keyed events with Key 0) are barriers — each
//     runs alone, in frontier order;
//   - maximal runs of keyed events form parallel segments. A segment is
//     partitioned by conflict key (first-appearance order) and the
//     partitions execute concurrently on a persistent worker pool, while
//     events inside one partition run in frontier order.
//
// Results are bit-identical to serial execution at any worker count
// because every source of ordering is pinned:
//
//  1. Same-key events never run concurrently, so per-domain and
//     per-account state sees schedule order.
//  2. Scheduling from a parallel handler is buffered in the handler's Exec
//     and flushed in frontier order after the segment, so sequence numbers
//     match what serial execution would have assigned.
//  3. Cross-partition interleaving is unobservable: handlers draw from
//     per-event or per-account RNGs (derived from the study seed and the
//     event's Seq), shared substrate is mutex-protected, and
//     append-ordered shared logs are re-sequenced per segment by the
//     registered Sequencers. Because no ordering leaks across partitions,
//     the executor is free to dispatch partitions largest-first (LPT),
//     which shaves stragglers off the end of wide segments.
//
// Starvation guard: the frontier is snapshotted before any handler runs,
// so an event that schedules at its own timestamp cannot grow the epoch
// it is part of — the requeue lands in the heap and forms the *next*
// epoch (same timestamp, later sequence numbers). Intra-epoch requeues
// are therefore capped at zero by construction and fire next epoch in
// deterministic order, exactly as Step would have fired them.
// TestStarvationGuard pins this.
//
// Allocation discipline: the executor is designed to run millions of
// events without per-event garbage. The frontier slice, the partition
// index (an open-addressing key table plus CSR offset/item scratch), and
// the per-event Exec values (a slab whose deferred buffers keep their
// capacity) are all owned by Epochs and reused across segments and epochs.

// Sequencer hooks shared append-ordered state into segment boundaries.
// BeginSegment is called before a parallel segment starts and EndSegment
// after all its partitions have finished; EndSegment must impose a
// deterministic order on whatever was appended in between (all appends in
// one segment carry the same virtual timestamp, so a stable sort by a
// content key suffices). Calls are always paired and never nested.
type Sequencer interface {
	BeginSegment()
	EndSegment()
}

// EpochStats describes one executed epoch; Epochs.Observe receives it
// after the epoch completes. Busy and Elapsed are only measured when an
// Observe hook is installed, so an unobserved run pays nothing for them.
type EpochStats struct {
	At         time.Time
	Width      int           // events in the frontier
	Keyed      int           // keyed (parallel-eligible) events among them
	Segments   int           // parallel segments executed
	Partitions int           // conflict partitions summed over segments
	Workers    int           // widest worker count any segment could use
	Busy       time.Duration // summed partition execution time
	Elapsed    time.Duration // wall-clock time executing the epoch
}

// Epochs drives a Scheduler epoch by epoch. Workers bounds partition
// concurrency (values below 2 execute partitions serially, still with
// full epoch semantics — the determinism baseline) and must not change
// once the first parallel segment has run. Sequencers are invoked around
// every parallel segment. Observe, when non-nil, receives per-epoch
// statistics.
//
// Tune, when non-nil, receives the deterministic shape of every executed
// epoch — the measured fields (Workers, Busy, Elapsed) are zeroed so a
// feedback controller hanging off it cannot accidentally couple the
// schedule to wall-clock timing or the worker count and break the
// worker-count invariance contract. The attacker's adaptive align
// controller is the intended consumer.
//
// The first parallel segment lazily starts Workers-1 helper goroutines
// that persist for the lifetime of the Epochs; call Close when done with
// the executor to release them. A closed executor remains usable — it
// falls back to running partitions on the driver goroutine.
type Epochs struct {
	Sched      *Scheduler
	Workers    int
	Sequencers []Sequencer
	Observe    func(EpochStats)
	Tune       func(EpochStats)

	frontier []*Event // scratch, reused across epochs

	// Segment scratch, all reused (see runSegment). items/offs form a CSR
	// layout over seg indices: partition p's events are
	// items[offs[p]:offs[p+1]], in frontier order. order is the dispatch
	// order (largest partition first).
	keys   keyTable
	pids   []int32
	counts []int32
	cursor []int32
	offs   []int32
	items  []int32
	order  []int32
	execs  []Exec
	flush  []*Event

	seg     segState
	jobs    chan struct{}
	helpers int
	closed  bool
}

// segState is the shared state of the segment currently executing on the
// pool. Exactly one segment runs at a time; the WaitGroup joins the
// helpers before the driver touches the results.
type segState struct {
	next    atomic.Int64
	busy    atomic.Int64
	wg      sync.WaitGroup
	now     time.Time
	seg     []*Event
	nparts  int
	metered bool
}

// Close releases the persistent worker goroutines. It is idempotent and
// safe to call on an executor that never went parallel. After Close the
// executor still runs correctly, executing partitions on the caller's
// goroutine.
func (e *Epochs) Close() {
	if e.jobs != nil {
		close(e.jobs)
		e.jobs = nil
		e.helpers = 0
	}
	e.closed = true
}

// ensurePool lazily starts the helper goroutines. The pool is sized once
// from Workers; helpers park on the job channel between segments.
func (e *Epochs) ensurePool() {
	if e.jobs != nil || e.closed || e.Workers < 2 {
		return
	}
	e.helpers = e.Workers - 1
	e.jobs = make(chan struct{}, e.helpers)
	for i := 0; i < e.helpers; i++ {
		go e.helper(e.jobs)
	}
}

// helper is the body of one persistent pool goroutine: wake on a token,
// drain partitions from the current segment, report done, park again.
// The channel is passed by value so Close (which nils the field) cannot
// race with the loop's receive.
func (e *Epochs) helper(jobs chan struct{}) {
	for range jobs {
		e.segWork()
		e.seg.wg.Done()
	}
}

// segWork claims partitions of the current segment (largest first, via the
// shared cursor into order) and executes them. It runs concurrently on the
// driver and every woken helper; all segment inputs are published before
// the wake tokens are sent.
func (e *Epochs) segWork() {
	ss := &e.seg
	metered := ss.metered
	for {
		k := ss.next.Add(1) - 1
		if k >= int64(ss.nparts) {
			return
		}
		p := e.order[k]
		var t0 time.Time
		if metered {
			t0 = time.Now()
		}
		for _, idx := range e.items[e.offs[p]:e.offs[p+1]] {
			ev := ss.seg[idx]
			x := &e.execs[idx]
			x.s, x.now, x.seq = e.Sched, ss.now, ev.seq
			x.buffered = true
			x.deferred = x.deferred[:0]
			ev.KFn(x)
		}
		if metered {
			ss.busy.Add(int64(time.Since(t0)))
		}
	}
}

// RunEpoch executes the next epoch and returns how many events fired
// (zero when the queue is empty).
func (e *Epochs) RunEpoch() int {
	s := e.Sched
	if len(s.pq) == 0 {
		return 0
	}
	frontier, at := s.popFrontier(e.frontier[:0])
	e.frontier = frontier
	s.clock.AdvanceTo(at)

	st := EpochStats{At: at, Width: len(frontier)}
	var epochStart time.Time
	if e.Observe != nil {
		epochStart = time.Now()
	}
	for i := 0; i < len(frontier); {
		ev := frontier[i]
		if ev.KFn == nil || ev.Key == 0 {
			s.fire(ev)
			i++
			continue
		}
		j := i + 1
		for j < len(frontier) && frontier[j].KFn != nil && frontier[j].Key != 0 {
			j++
		}
		e.runSegment(frontier[i:j], &st)
		i = j
	}
	if e.Tune != nil {
		ts := st
		ts.Workers, ts.Busy, ts.Elapsed = 0, 0, 0
		e.Tune(ts)
	}
	if e.Observe != nil {
		st.Elapsed = time.Since(epochStart)
		e.Observe(st)
	}
	// Drop handler references so fired closures are collectable even while
	// the scratch frontier is retained for the next epoch.
	clear(frontier)
	return st.Width
}

// RunUntil runs epochs until the queue is empty or the next epoch is after
// deadline, then advances the clock to deadline (mirroring
// Scheduler.RunUntil). It returns the number of events fired.
func (e *Epochs) RunUntil(deadline time.Time) int {
	n := 0
	for {
		at, ok := e.Sched.NextAt()
		if !ok || at.After(deadline) {
			break
		}
		n += e.RunEpoch()
	}
	e.Sched.clock.AdvanceTo(deadline)
	return n
}

// runSegment executes one maximal run of keyed events: partition by key,
// run partitions concurrently, re-sequence shared logs, then flush the
// handlers' deferred scheduling in frontier order.
func (e *Epochs) runSegment(seg []*Event, st *EpochStats) {
	st.Keyed += len(seg)
	st.Segments++

	// Partition by conflict key in first-appearance order into a CSR
	// layout. The key table and every scratch slice persist across
	// segments, so steady-state partitioning allocates nothing.
	n := len(seg)
	e.pids = growInt32(e.pids, n)
	e.keys.reset(n)
	nparts := 0
	for i, ev := range seg {
		pid, ok := e.keys.lookup(ev.Key, int32(nparts))
		if !ok {
			nparts++
		}
		e.pids[i] = pid
	}
	st.Partitions += nparts

	e.counts = growInt32(e.counts, nparts)
	counts := e.counts[:nparts]
	for i := range counts {
		counts[i] = 0
	}
	for _, pid := range e.pids[:n] {
		counts[pid]++
	}
	e.offs = growInt32(e.offs, nparts+1)
	e.cursor = growInt32(e.cursor, nparts)
	offs, cursor := e.offs[:nparts+1], e.cursor[:nparts]
	off := int32(0)
	for p, c := range counts {
		offs[p] = off
		cursor[p] = off
		off += c
	}
	offs[nparts] = off
	e.items = growInt32(e.items, n)
	for i, pid := range e.pids[:n] {
		e.items[cursor[pid]] = int32(i)
		cursor[pid]++
	}

	// Dispatch order: largest partitions first (classic LPT scheduling).
	// Worker-count invariance holds because cross-partition order is
	// unobservable; the pid tiebreak just keeps the order itself stable.
	e.order = growInt32(e.order, nparts)
	order := e.order[:nparts]
	for p := range order {
		order[p] = int32(p)
	}
	for i := 1; i < nparts; i++ {
		p := order[i]
		j := i
		for j > 0 && (counts[order[j-1]] < counts[p] ||
			(counts[order[j-1]] == counts[p] && order[j-1] > p)) {
			order[j] = order[j-1]
			j--
		}
		order[j] = p
	}

	workers := e.Workers
	if workers > nparts {
		workers = nparts
	}
	if workers < 1 {
		workers = 1
	}
	if workers > st.Workers {
		st.Workers = workers
	}

	if len(e.execs) < n {
		e.execs = append(e.execs, make([]Exec, n-len(e.execs))...)
	}

	for _, sq := range e.Sequencers {
		sq.BeginSegment()
	}
	ss := &e.seg
	ss.now = e.Sched.clock.Now()
	ss.seg = seg
	ss.nparts = nparts
	ss.metered = e.Observe != nil
	ss.next.Store(0)
	ss.busy.Store(0)
	if workers <= 1 || e.closed {
		e.segWork()
	} else {
		e.ensurePool()
		helpers := workers - 1
		if helpers > e.helpers {
			helpers = e.helpers
		}
		ss.wg.Add(helpers)
		for i := 0; i < helpers; i++ {
			e.jobs <- struct{}{}
		}
		e.segWork()
		ss.wg.Wait()
	}
	if ss.metered {
		st.Busy += time.Duration(ss.busy.Load())
	}
	ss.seg = nil
	for _, sq := range e.Sequencers {
		sq.EndSegment()
	}

	// Deterministic flush: deferred events enter the queue in frontier
	// order, reproducing the sequence numbers serial execution assigns.
	// Gathering the whole segment's deferral into one batch lets the
	// scheduler restore the heap in a single pass.
	flush := e.flush[:0]
	for i := range seg {
		x := &e.execs[i]
		flush = append(flush, x.deferred...)
		clear(x.deferred)
		x.deferred = x.deferred[:0]
	}
	e.Sched.pushBatch(flush)
	clear(flush)
	e.flush = flush[:0]
}

// growInt32 extends s to length n, reusing its backing array.
func growInt32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n, n+n/2+8)
}

// keyTable is a reusable open-addressing map from conflict key to
// partition id. Slots are invalidated in O(1) between segments by bumping
// a generation counter instead of clearing.
type keyTable struct {
	keys []uint64
	pids []int32
	gens []uint64
	gen  uint64
	mask uint64
}

// reset prepares the table for a segment of up to n distinct keys.
func (t *keyTable) reset(n int) {
	want := 16
	for want < 2*n {
		want <<= 1
	}
	if len(t.keys) < want {
		t.keys = make([]uint64, want)
		t.pids = make([]int32, want)
		t.gens = make([]uint64, want)
		t.mask = uint64(want - 1)
		t.gen = 0
	}
	t.gen++
}

// lookup returns the partition id for key, inserting next (and reporting
// ok=false) when the key is new this segment.
func (t *keyTable) lookup(key uint64, next int32) (pid int32, ok bool) {
	// Fibonacci hashing spreads the low-entropy 1..256 shard keys as well
	// as arbitrary 64-bit keys.
	i := (key * 0x9E3779B97F4A7C15) >> 32 & t.mask
	for {
		if t.gens[i] != t.gen {
			t.gens[i] = t.gen
			t.keys[i] = key
			t.pids[i] = next
			return next, false
		}
		if t.keys[i] == key {
			return t.pids[i], true
		}
		i = (i + 1) & t.mask
	}
}
