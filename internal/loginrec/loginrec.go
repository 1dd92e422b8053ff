// Package loginrec packs a login into a fixed-size record with no
// pointers, so a log of millions of logins is flat arrays the garbage
// collector never scans.
//
// A Login is 16 bytes: the time as UTC Unix nanoseconds, the source
// address as an IPv4 word, and one tag byte whose meaning its owner
// chooses (an access method, an outcome). Addresses a word cannot hold
// (IPv6, IPv4-in-IPv6, zoned and zero addresses) go into the owner's
// Addrs side table, and the word holds their index. A Record adds a
// 32-bit account id, an index into a table of account names, and is 24
// bytes. A Log keeps Records in time order together with the name table
// and side table they index, and writes and reads the cold segments they
// spill to.
//
// Ids and side-table indexes are handed out in first-use order, which
// inside a parallel segment is goroutine order: nothing may order or
// encode records by id or index, only by the names and addresses they
// resolve to.
package loginrec

import (
	"net/netip"
	"time"
)

// Login is one login's time, source address and tag.
type Login struct {
	nanos int64  // UTC Unix nanoseconds; unused for the zero time
	ip    uint32 // IPv4 address, or an index into the owner's Addrs
	Tag   uint8  // the owner's: an access method, an outcome
	flags uint8
}

const (
	zeroTime uint8 = 1 << iota // packed from the zero time.Time
	sideAddr                   // ip indexes the owner's Addrs
)

// Record is a Login with the id of its account in its owner's name table.
type Record struct {
	Login
	Account uint32
}

// Time returns the login's time: the zero Time if it was packed from the
// zero Time, otherwise the same instant in UTC.
func (l *Login) Time() time.Time {
	if l.flags&zeroTime != 0 {
		return time.Time{}
	}
	return time.Unix(0, l.nanos).UTC()
}

// IP returns the login's source address. addrs is the owner's side table,
// as Addrs.List returned it at any point after the login was packed.
func (l *Login) IP(addrs []netip.Addr) netip.Addr {
	if l.flags&sideAddr != 0 {
		return addrs[l.ip]
	}
	return netip.AddrFrom4([4]byte{byte(l.ip >> 24), byte(l.ip >> 16), byte(l.ip >> 8), byte(l.ip)})
}

// Addrs is an owner's side table of the addresses a Login cannot hold
// inline, each stored once. The zero value is empty and ready to use. It
// is not safe for concurrent use: owners pack under their own locks.
type Addrs struct {
	list  []netip.Addr
	index map[netip.Addr]uint32
}

// Pack packs a login at t from ip with tag, adding ip to the table when it
// is not a plain IPv4 address. t must be the zero Time or lie within
// int64 nanoseconds of the Unix epoch (years 1678 to 2262).
func (a *Addrs) Pack(t time.Time, ip netip.Addr, tag uint8) Login {
	l := Login{Tag: tag}
	if t.IsZero() {
		l.flags |= zeroTime
	} else {
		l.nanos = t.UnixNano()
	}
	if ip.Is4() {
		b := ip.As4()
		l.ip = uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
		return l
	}
	l.flags |= sideAddr
	if a.index == nil {
		a.index = make(map[netip.Addr]uint32, len(a.list))
		for i, x := range a.list {
			a.index[x] = uint32(i)
		}
	}
	i, ok := a.index[ip]
	if !ok {
		i = uint32(len(a.list))
		a.list = append(a.list, ip)
		a.index[ip] = i
	}
	l.ip = i
	return l
}

// List returns the table. The table only grows and never rewrites an
// entry, so the returned slice resolves every login packed before the
// call, for as long as it is kept, whatever is packed after it.
func (a *Addrs) List() []netip.Addr { return a.list[:len(a.list):len(a.list)] }

// Clone returns a table with the same entries that shares nothing the
// original will write to.
func (a *Addrs) Clone() Addrs { return Addrs{list: a.List()} }
