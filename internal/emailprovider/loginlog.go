package emailprovider

import (
	"net/netip"
	"sort"
	"sync"
	"time"

	"tripwire/internal/loginrec"
	"tripwire/internal/snapshot"
)

// loginLog stores successful logins in time order in a loginrec.Log: a
// chunked log of 24-byte records with no pointers, so a login never moves
// once appended, growth copies nothing and the garbage collector never
// scans the log. A record's account id names the account's address, built
// at its first login and interned under its local part; its method tag
// indexes methodNames. The provider's clock only moves forward, so every
// dump reduces to two binary searches over a contiguous window — O(log n)
// — that the dump then reads in place. Retention purges and spills drop
// whole prefixes, and the chunks they empty are released.
type loginLog struct {
	mu  sync.Mutex
	at  string // "@" + the provider's domain
	log loginrec.Log
}

// append records a successful login to local@domain at t from ip by
// method.
func (r *loginLog) append(local string, t time.Time, ip netip.Addr, method uint8) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log.Append(r.log.Intern(local, r.at), t, ip, method)
}

// windowLocked returns a dump reading records [lo, hi) in place. Caller
// holds mu.
func (r *loginLog) windowLocked(lo, hi int) Dump {
	return Dump{recs: r.log.Window(lo, hi), log: r, names: r.log.Names(), addrs: r.log.Addrs()}
}

// timeWindow returns the records [lo, hi), of n in time order, with Time
// in (since, now] and not before cutoff. Both bounds are monotone in time,
// so the matching records form one contiguous run.
func timeWindow(n int, at func(i int) *loginrec.Record, since, cutoff, now time.Time) (lo, hi int) {
	lo = sort.Search(n, func(i int) bool {
		t := at(i).Time()
		return t.After(since) && !t.Before(cutoff)
	})
	hi = lo + sort.Search(n-lo, func(i int) bool { return at(lo + i).Time().After(now) })
	return lo, hi
}

// dumpSince returns the logins with Time in (since, now] that are not
// older than cutoff, oldest first.
func (r *loginLog) dumpSince(since, cutoff, now time.Time) Dump {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.windowLocked(timeWindow(r.log.Len(), r.log.At, since, cutoff, now))
}

// purgeExpired drops the prefix of logins older than cutoff and reports
// how many it dropped.
func (r *loginLog) purgeExpired(cutoff time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	drop := sort.Search(r.log.Len(), func(i int) bool { return !r.log.At(i).Time().Before(cutoff) })
	r.log.DropFront(drop)
	return drop
}

// mark and seal bracket one parallel timeline segment (see loginrec.Log's
// Mark and Seal). No purge can run between them (dumps are exclusive
// events), and takeSpill waits for the seal.
func (r *loginLog) mark() {
	r.mu.Lock()
	r.log.Mark()
	r.mu.Unlock()
}

func (r *loginLog) seal() {
	r.mu.Lock()
	r.log.Seal()
	r.mu.Unlock()
}

// takeSpill detaches the oldest prefix when the log holds more than
// budget logins, leaving budget/2 resident (so spills happen in batches
// rather than on every append), and returns it encoded as a cold
// segment's payload, with the segment's index entry; its count is 0 when
// nothing was detached. It waits while a segment is open, whose content
// is not yet in deterministic order. The prefix is encoded before it is
// dropped, since dropping may zero its records; dropping releases the
// chunks it emptied.
func (r *loginLog) takeSpill(budget int) (payload []byte, seg coldSegment) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.log.Len()
	if budget <= 0 || r.log.Open() || n <= budget {
		return nil, coldSegment{}
	}
	k := n - budget/2
	e := snapshot.NewEncoder()
	loginrec.EncodeSegment(e, r.log.Window(0, k))
	seg = coldSegment{
		min: r.log.At(0).Time(), max: r.log.At(k - 1).Time(), count: k,
		names: len(r.log.Names()), addrs: len(r.log.Addrs()),
	}
	r.log.DropFront(k)
	return e.Bytes(), seg
}

// size returns the number of resident logins.
func (r *loginLog) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.Len()
}
