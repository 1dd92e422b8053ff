package emailprovider

import (
	"net/netip"
	"time"

	"tripwire/internal/chunklog"
	"tripwire/internal/loginrec"
	"tripwire/internal/snapshot"
)

// Dump is a provider dump: the successful logins of one window of the
// login log, oldest first, as login records. A Dump reads the resident
// part of its window in place: taking it copies at most the pointers of
// the window's chunks, never its logins, and logins appended after it was
// taken do not change it. A purge or spill that drops logins of the window
// invalidates it, so a dump is read before the next PurgeExpired. Records
// from the cold tier are read when the dump is taken.
type Dump struct {
	cold  []loginrec.Record              // cold-tier records, older than recs
	recs  chunklog.View[loginrec.Record] // the resident window
	log   *loginLog                      // the log the records came from
	names []string                       // the log's account addresses, by id
	addrs []netip.Addr                   // the log's address side table
}

// Len returns the number of logins in the dump.
func (d Dump) Len() int { return len(d.cold) + d.recs.Len() }

// Each calls fn with every login in the dump, oldest first, walking the
// resident window chunk by chunk. id is the account's index in the name
// table of the login log the dump came from, which never reuses an index
// for another address, so an id names the same account in every dump of
// one Source. Ids follow first login, which inside a parallel segment is
// goroutine order: a caller may key state by id, never order by it.
func (d Dump) Each(fn func(ev LoginEvent, id uint32)) {
	for i := range d.cold {
		fn(d.event(&d.cold[i]), d.cold[i].Account)
	}
	for k := 0; k < d.recs.Parts(); k++ {
		part := d.recs.Part(k)
		for i := range part {
			fn(d.event(&part[i]), part[i].Account)
		}
	}
}

// Source identifies the login log whose name table the dump's account ids
// index: two dumps with equal Sources number accounts alike, so a caller
// may carry state keyed by id from one to the other.
func (d Dump) Source() any { return d.log }

// Events returns the dump's logins as one slice, oldest first.
func (d Dump) Events() []LoginEvent {
	out := make([]LoginEvent, 0, d.Len())
	d.Each(func(ev LoginEvent, _ uint32) { out = append(out, ev) })
	return out
}

// event decodes one record.
func (d *Dump) event(r *loginrec.Record) LoginEvent {
	return LoginEvent{Account: d.names[r.Account], Time: r.Time(), IP: r.IP(d.addrs), Method: methodNames[r.Tag]}
}

// encode writes the dump as EncodeLoginEvents writes its Events.
func (d Dump) encode(e *snapshot.Encoder) {
	e.Uint(uint64(d.Len()))
	d.Each(func(ev LoginEvent, _ uint32) { appendLoginEvent(e, &ev) })
}

// DumpSince returns the successful-login events with Time in (since, now],
// subject to the provider's retention window: events older than Retention
// (measured from the current virtual time) have been purged and cannot be
// recovered, which is how the paper lost its Spring 2015 data ("due to a
// misunderstanding of the retention limits at the email provider, login
// activity was lost from March 20, 2015, through June 1, 2015").
//
// The log is a time-ordered chunked log (see loginLog) plus optional cold
// segments spilled to disk (see spill.go); both tiers are in time order,
// so the window is located by binary search in each rather than a scan
// over the whole retained history. Cold segments are strictly older than
// every resident login, so their logins come first.
func (p *Provider) DumpSince(since time.Time) Dump {
	now := p.Now()
	return p.dump(since, now.Add(-p.Retention), now)
}

// dump returns the logins of both tiers with Time in (since, now] and not
// before cutoff. The cold tier is read first: the name and address tables
// the resident window then captures resolve every record it holds.
func (p *Provider) dump(since, cutoff, now time.Time) Dump {
	cold := p.spilledSince(since, cutoff, now)
	d := p.log.dumpSince(since, cutoff, now)
	d.cold = cold
	return d
}

// beforeAll and afterAll bound every time a login can carry: the zero
// Time, or one within int64 nanoseconds of the Unix epoch.
var beforeAll, afterAll = time.Time{}.Add(-1), time.Unix(1<<40, 0)

// AllLogins returns every retained login event, cold and resident tiers
// merged oldest-first (ground truth for tests and reports).
func (p *Provider) AllLogins() []LoginEvent { return p.allLogins().Events() }

// allLogins returns a dump of every retained login.
func (p *Provider) allLogins() Dump { return p.dump(beforeAll, beforeAll, afterAll) }

// PurgeExpired discards events beyond the retention window, modelling the
// provider's storage policy actually deleting data. Cold segments wholly
// behind the window are unlinked; the resident log drops its expired prefix.
func (p *Provider) PurgeExpired() int {
	cutoff := p.Now().Add(-p.Retention)
	return p.purgeSpilled(cutoff) + p.log.purgeExpired(cutoff)
}

// BeginSegment / EndSegment implement simclock.Sequencer: the epoch-parallel
// timeline engine brackets every parallel segment with them so the login
// log's append order — the one piece of provider state that is sensitive to
// goroutine interleaving — is re-sequenced deterministically (see
// loginLog.seal). All other provider state is per-account and per-account
// events never run concurrently.
func (p *Provider) BeginSegment() { p.log.mark() }

// EndSegment closes the segment opened by BeginSegment, then gives the
// cold tier a chance to spill: post-seal the log's order is
// deterministic, so segment boundaries are too.
func (p *Provider) EndSegment() {
	p.log.seal()
	p.maybeSpill()
}

// Abuse-response operations: the provider's security systems acting on
// compromised accounts, per paper §6.4.4.

// Freeze locks an account for suspicious activity.
func (p *Provider) Freeze(email string) bool { return p.setState(email, Frozen) }

// ForceReset invalidates the password after recognized compromise.
func (p *Provider) ForceReset(email string) bool { return p.setState(email, ResetForced) }

func (p *Provider) setState(email string, st State) bool {
	return p.mutate(email, func(sh *accountShard, slot int32) {
		if State(sh.states[slot]) == st {
			return
		}
		if p.Metrics != nil {
			switch st {
			case Frozen:
				p.Metrics.frozen.Inc()
			case ResetForced:
				p.Metrics.forcedResets.Inc()
			}
		}
		sh.states[slot] = uint8(st)
	})
}

// Attacker-side account manipulation (observed in paper §6.4.4: "account g2
// had had the password changed and our forwarding address removed by the
// attacker"). These require a prior successful login; callers enforce that.

// ChangePassword sets a new password on the account.
func (p *Provider) ChangePassword(email, newPassword string) bool {
	return p.mutate(email, func(sh *accountShard, slot int32) {
		sh.passwords[slot] = newPassword
	})
}

// RemoveForwarding clears the account's forwarding address.
func (p *Provider) RemoveForwarding(email string) bool {
	return p.mutate(email, func(sh *accountShard, slot int32) {
		sh.forwards[slot] = ""
	})
}

// ReportSpam records that an account emitted outbound spam; after a couple
// of reports the provider deactivates it, matching the fate of accounts b1,
// g2, h1, h2, i2, k1 and m2 in the paper.
func (p *Provider) ReportSpam(email string, messages int) State {
	st := Active
	p.mutate(email, func(sh *accountShard, slot int32) {
		st = State(sh.states[slot])
		if messages > 0 && st == Active {
			st = Deactivated
			sh.states[slot] = uint8(Deactivated)
			if p.Metrics != nil {
				p.Metrics.deactivated.Inc()
			}
		}
	})
	return st
}

// FrozenOrDeactivated reports whether the provider has locked the account
// in any way.
func (p *Provider) FrozenOrDeactivated(email string) bool {
	st, ok := p.State(email)
	return ok && (st == Frozen || st == Deactivated)
}
