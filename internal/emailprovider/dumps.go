package emailprovider

import (
	"time"
)

// DumpSince returns the successful-login events with Time in (since, now],
// subject to the provider's retention window: events older than Retention
// (measured from the current virtual time) have been purged and cannot be
// recovered, which is how the paper lost its Spring 2015 data ("due to a
// misunderstanding of the retention limits at the email provider, login
// activity was lost from March 20, 2015, through June 1, 2015").
//
// The log is a time-ordered chunked log (see loginLog) plus optional cold
// segments spilled to disk (see spill.go); both tiers are time-sorted, so
// the window is located by binary search in each rather than a scan over
// the whole retained history. Cold segments are strictly older than every
// resident event, so concatenating segment results before resident results
// preserves global order.
func (p *Provider) DumpSince(since time.Time) []LoginEvent {
	now := p.Now()
	cutoff := now.Add(-p.Retention)
	out := p.spilledSince(since, cutoff, now)
	resident := p.log.dumpSince(since, cutoff, now)
	if out == nil {
		return resident
	}
	return append(out, resident...)
}

// AllLogins returns every retained login event, cold and resident tiers
// merged oldest-first (ground truth for tests and state export).
func (p *Provider) AllLogins() []LoginEvent {
	spilled := p.allSpilled()
	resident := p.log.all()
	if spilled == nil {
		return resident
	}
	return append(spilled, resident...)
}

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

// Deactivate shuts an account down for sending spam.
func (p *Provider) Deactivate(email string) bool { return p.setState(email, Deactivated) }

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
			case Deactivated:
				p.Metrics.deactivated.Inc()
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
