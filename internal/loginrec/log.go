package loginrec

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"time"

	"tripwire/internal/chunklog"
	"tripwire/internal/snapshot"
)

// Log is an append-only login log in time order: Records in a
// chunklog.Log, the table of account names their ids index, and the Addrs
// side table their addresses may index. Both tables only grow, so a
// record dropped from the log, or detached to a cold segment, still
// resolves through them. A Log is not safe for concurrent use: its owner
// locks, as it would for a chunklog.Log or an Addrs.
type Log struct {
	recs chunklog.Log[Record]
	// names[id] is account id's name; ids maps the key its owner interned
	// it under to id.
	names []string
	ids   map[string]uint32
	addrs Addrs
	mark  int  // the first index of the open segment
	open  bool // between Mark and Seal
	// Seal's buffers, kept between calls: the segment's records, its
	// distinct accounts, and per account id its count of the segment's
	// records and then the next place in the segment for one (zero for
	// every id outside a Seal).
	seg   []Record
	accts []uint32
	slot  []int32
}

// Intern returns the id of the account named key+suffix, adding it to the
// name table at its first use. The table is keyed by key alone, so an
// owner that logs the accounts of one domain passes the local part as key
// and "@domain" as suffix, and builds each name once. The key is held as
// a prefix of the name, never the caller's string. Ids follow first use,
// which inside a parallel segment is goroutine order: nothing may order
// or encode by id.
func (l *Log) Intern(key, suffix string) uint32 {
	id, ok := l.ids[key]
	if !ok {
		if l.ids == nil {
			l.ids = make(map[string]uint32)
		}
		name := key + suffix
		id = uint32(len(l.names))
		l.names = append(l.names, name)
		l.ids[name[:len(key)]] = id
	}
	return id
}

// Name returns the name of account id.
func (l *Log) Name(id uint32) string { return l.names[id] }

// Names returns the name table. It only grows and never rewrites an entry,
// so the returned slice resolves every record appended before the call.
func (l *Log) Names() []string { return l.names[:len(l.names):len(l.names)] }

// Addrs returns the address side table, as Addrs.List does.
func (l *Log) Addrs() []netip.Addr { return l.addrs.List() }

// Append logs a login to account id at t from ip with tag. The log is in
// time order: a login older than the last one appended is a bug in its
// owner's clock, and panics naming both times.
func (l *Log) Append(id uint32, t time.Time, ip netip.Addr, tag uint8) {
	r := Record{Login: l.addrs.Pack(t, ip, tag), Account: id}
	if n := l.recs.Len(); n > 0 {
		if last := l.recs.At(n - 1); last.after(&r.Login) {
			panic(fmt.Sprintf("loginrec: login at %v appended after one at %v", t, last.Time()))
		}
	}
	l.recs.Append(r)
}

// after reports whether l is later than m.
func (l *Login) after(m *Login) bool {
	switch {
	case l.flags&zeroTime != 0:
		return false
	case m.flags&zeroTime != 0:
		return true
	default:
		return l.nanos > m.nanos
	}
}

// Len returns the number of records.
func (l *Log) Len() int { return l.recs.Len() }

// At returns record i, as chunklog.Log.At does.
func (l *Log) At(i int) *Record { return l.recs.At(i) }

// Window returns a view of records [lo, hi), as chunklog.Log.Window does.
func (l *Log) Window(lo, hi int) chunklog.View[Record] { return l.recs.Window(lo, hi) }

// DropFront drops the first k records, as chunklog.Log.DropFront does. It
// panics while a segment is open, whose mark it would move.
func (l *Log) DropFront(k int) {
	if l.open {
		panic("loginrec: DropFront inside an open segment")
	}
	l.recs.DropFront(k)
}

// Mark opens a segment: Seal re-sequences what is appended after it. The
// pair brackets one parallel timeline segment (simclock.Sequencer), inside
// which the clock is frozen, so every login appended carries the same time
// and their order across accounts is an accident of goroutine
// interleaving.
func (l *Log) Mark() {
	l.mark = l.recs.Len()
	l.open = true
}

// Open reports whether a segment is open: between Mark and Seal.
func (l *Log) Open() bool { return l.open }

// Seal closes the segment Mark opened by stably sorting it by account name,
// across chunk boundaries when it spans one. It compares names, never the
// ids the segment handed out in goroutine order. Two logins to one account
// in one segment come from the same conflict partition and are already in
// deterministic order, which the stable sort keeps, so the sealed log does
// not depend on how the segment's partitions interleaved.
//
// A segment holds a few logins to each account it touches, so Seal sorts
// the distinct accounts, not the records: it counts each account's logins,
// orders the accounts by name, and places each record after those of the
// accounts before its own, in its order among its account's records.
func (l *Log) Seal() {
	l.open = false
	if l.recs.Len()-l.mark < 2 {
		return
	}
	if len(l.slot) < len(l.names) {
		l.slot = append(l.slot, make([]int32, len(l.names)-len(l.slot))...)
	}
	seg, accts := l.seg[:0], l.accts[:0]
	for i := l.mark; i < l.recs.Len(); i++ {
		r := l.recs.At(i)
		if l.slot[r.Account] == 0 {
			accts = append(accts, r.Account)
		}
		l.slot[r.Account]++
		seg = append(seg, *r)
	}
	if len(accts) > 1 {
		slices.SortFunc(accts, func(a, b uint32) int { return strings.Compare(l.names[a], l.names[b]) })
		next := int32(0)
		for _, id := range accts {
			next, l.slot[id] = next+l.slot[id], next
		}
		for i := range seg {
			slot := &l.slot[seg[i].Account]
			*l.recs.At(l.mark + int(*slot)) = seg[i]
			*slot++
		}
	}
	for _, id := range accts {
		l.slot[id] = 0
	}
	l.seg, l.accts = seg[:0], accts[:0]
}

// recordMinBytes is the least one record occupies in a segment: five
// varints of at least a byte each.
const recordMinBytes = 5

// EncodeSegment writes the records of v to e as a cold segment's payload,
// which DecodeSegment reads back.
func EncodeSegment(e *snapshot.Encoder, v chunklog.View[Record]) {
	e.Uint(uint64(v.Len()))
	for k := 0; k < v.Parts(); k++ {
		part := v.Part(k)
		for i := range part {
			r := &part[i]
			e.Int(r.nanos)
			e.Uint(uint64(r.ip))
			e.Uint(uint64(r.Tag))
			e.Uint(uint64(r.flags))
			e.Uint(uint64(r.Account))
		}
	}
}

// DecodeSegment reads a payload EncodeSegment wrote, for a log whose name
// and address tables held names and addrs entries when it was written. A
// truncated or overlong payload, or a record that does not fit those
// tables, the field widths or the log's time order, is an error wrapping
// snapshot.ErrCorrupt.
func DecodeSegment(d *snapshot.Decoder, names, addrs int) ([]Record, error) {
	n := d.Count(recordMinBytes)
	if err := d.Err(); err != nil {
		return nil, err
	}
	recs := make([]Record, n)
	for i := range recs {
		nanos, ip, tag, flags, account := d.Int(), d.Uint(), d.Uint(), d.Uint(), d.Uint()
		if err := d.Err(); err != nil {
			return nil, err
		}
		r := Record{Login: Login{nanos: nanos, ip: uint32(ip), Tag: uint8(tag), flags: uint8(flags)}, Account: uint32(account)}
		switch {
		case ip > 1<<32-1 || account > 1<<32-1 || tag > 1<<8-1 || flags&^uint64(zeroTime|sideAddr) != 0,
			r.flags&zeroTime != 0 && nanos != 0,
			r.flags&sideAddr != 0 && ip >= uint64(addrs),
			account >= uint64(names),
			i > 0 && recs[i-1].after(&r.Login):
			return nil, fmt.Errorf("%w: login record %d of %d does not fit its log", snapshot.ErrCorrupt, i, n)
		}
		recs[i] = r
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last login record", snapshot.ErrCorrupt, d.Remaining())
	}
	return recs, nil
}
