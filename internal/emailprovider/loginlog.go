package emailprovider

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// loginRing stores successful-login events in a time-ordered ring buffer.
// The simulation's virtual clock only moves forward, so appends arrive in
// nondecreasing time order and every dump reduces to two binary searches
// over a contiguous window — O(log n + matches) instead of the full-log
// scan the slice-backed log needed. Retention purges drop whole prefixes by
// advancing the head, so expiry is O(log n) and frees no per-event work.
// If a caller ever appends out of order the ring flips to a linear-scan
// fallback rather than returning wrong windows.
type loginRing struct {
	mu       sync.Mutex
	buf      []LoginEvent
	head     int // index of the oldest event in buf
	n        int // events currently stored
	unsorted bool
	marked   int // logical index saved by mark() for seal()
	// inSegment is true between mark and seal. While set, takeSpill
	// refuses to detach a prefix: spilling would move the head and
	// invalidate the marked index, and mid-segment content is not yet
	// deterministically ordered.
	inSegment bool
	// order and sorted are seal's sort buffers, kept between segments.
	order  []*LoginEvent
	sorted []LoginEvent
}

// at returns the i-th oldest stored event. Callers hold mu and guarantee
// 0 <= i < n (so buf is non-empty).
func (r *loginRing) at(i int) *LoginEvent {
	return &r.buf[(r.head+i)%len(r.buf)]
}

// grow linearizes the ring into a buffer of at least double the capacity.
func (r *loginRing) grow() {
	next := make([]LoginEvent, max(64, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		next[i] = *r.at(i)
	}
	r.buf = next
	r.head = 0
}

func (r *loginRing) append(ev LoginEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == len(r.buf) {
		r.grow()
	}
	if r.n > 0 && ev.Time.Before(r.at(r.n-1).Time) {
		r.unsorted = true
	}
	*r.at(r.n) = ev
	r.n++
}

// dumpSince returns the events with Time in (since, now] that are not older
// than cutoff, oldest first.
func (r *loginRing) dumpSince(since, cutoff, now time.Time) []LoginEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.unsorted {
		var out []LoginEvent
		for i := 0; i < r.n; i++ {
			if ev := *r.at(i); inWindow(ev.Time, since, cutoff, now) {
				out = append(out, ev)
			}
		}
		return out
	}
	// Both bounds are monotone in event time, so the matching events form
	// one contiguous run: [lo, hi).
	lo := sort.Search(r.n, func(i int) bool {
		t := r.at(i).Time
		return t.After(since) && !t.Before(cutoff)
	})
	hi := lo + sort.Search(r.n-lo, func(i int) bool {
		return r.at(lo + i).Time.After(now)
	})
	if lo >= hi {
		return nil
	}
	out := make([]LoginEvent, hi-lo)
	for i := lo; i < hi; i++ {
		out[i-lo] = *r.at(i)
	}
	return out
}

func inWindow(t, since, cutoff, now time.Time) bool {
	return t.After(since) && !t.Before(cutoff) && !t.After(now)
}

// purgeExpired discards events older than cutoff and reports how many were
// dropped. In the sorted fast path this only advances the head.
func (r *loginRing) purgeExpired(cutoff time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return 0
	}
	if !r.unsorted {
		drop := sort.Search(r.n, func(i int) bool {
			return !r.at(i).Time.Before(cutoff)
		})
		r.head = (r.head + drop) % len(r.buf)
		r.n -= drop
		if r.n == 0 {
			r.head = 0
		}
		return drop
	}
	// Out-of-order log: compact in place and recheck orderedness, so a ring
	// that drained its disordered tail regains the binary-search path.
	kept := make([]LoginEvent, 0, r.n)
	for i := 0; i < r.n; i++ {
		if ev := *r.at(i); !ev.Time.Before(cutoff) {
			kept = append(kept, ev)
		}
	}
	purged := r.n - len(kept)
	r.buf = kept
	r.head = 0
	r.n = len(kept)
	r.unsorted = false
	for i := 1; i < len(kept); i++ {
		if kept[i].Time.Before(kept[i-1].Time) {
			r.unsorted = true
			break
		}
	}
	return purged
}

// mark remembers the current logical length; seal later re-sequences
// everything appended after it. The pair brackets one parallel timeline
// segment (simclock.Sequencer): within a segment the clock is frozen, so
// every appended event carries the same timestamp and cross-account append
// order is an accident of goroutine interleaving. seal erases that accident.
// No purge can run between mark and seal (dumps are exclusive events), so
// the logical index stays valid.
func (r *loginRing) mark() {
	r.mu.Lock()
	r.marked = r.n
	r.inSegment = true
	r.mu.Unlock()
}

// seal stably sorts the block appended since mark by (Time, Account). Two
// same-epoch logins to the same account come from the same conflict
// partition and are therefore already in deterministic order, which the
// stable sort preserves — making the whole log independent of how the
// segment's partitions interleaved.
func (r *loginRing) seal() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inSegment = false
	m := r.marked
	if r.n-m < 2 {
		return
	}
	// Sort pointers to the block's events, then copy the events out in
	// that order and back: a swap moves a pointer, not an event.
	order := r.order[:0]
	for i := m; i < r.n; i++ {
		order = append(order, r.at(i))
	}
	slices.SortStableFunc(order, func(a, b *LoginEvent) int {
		if c := a.Time.Compare(b.Time); c != 0 {
			return c
		}
		return strings.Compare(a.Account, b.Account)
	})
	blk := r.sorted[:0]
	for _, ev := range order {
		blk = append(blk, *ev)
	}
	for i := range blk {
		*r.at(m + i) = blk[i]
	}
	// Keep both buffers for the next segment, but not the buffer and
	// strings they point at.
	clear(order)
	clear(blk)
	r.order, r.sorted = order[:0], blk[:0]
}

// takeSpill detaches and returns the oldest prefix when the ring holds
// more than budget events, leaving budget/2 resident (so spills happen in
// batches rather than on every append). It refuses mid-segment (the
// marked index must stay valid and segment content is not yet sealed into
// deterministic order) and on the unsorted fallback path (a disordered
// prefix cannot be binary-searched once cold). After detaching it shrinks
// the buffer, releasing the spilled prefix's heap.
func (r *loginRing) takeSpill(budget int) []LoginEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	if budget <= 0 || r.inSegment || r.unsorted || r.n <= budget {
		return nil
	}
	keep := budget / 2
	k := r.n - keep
	out := make([]LoginEvent, k)
	for i := 0; i < k; i++ {
		out[i] = *r.at(i)
	}
	r.head = (r.head + k) % len(r.buf)
	r.n = keep
	if r.n == 0 {
		r.head = 0
	}
	if want := max(64, 2*r.n); len(r.buf) > 2*want {
		next := make([]LoginEvent, want)
		for i := 0; i < r.n; i++ {
			next[i] = *r.at(i)
		}
		r.buf = next
		r.head = 0
	}
	return out
}

// all returns every stored event, oldest first.
func (r *loginRing) all() []LoginEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]LoginEvent, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = *r.at(i)
	}
	return out
}

// size returns the number of stored events.
func (r *loginRing) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}
