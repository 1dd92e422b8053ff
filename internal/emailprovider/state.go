package emailprovider

import (
	"slices"
	"strings"
	"time"

	"tripwire/internal/snapshot"
)

// EncodeSection writes the provider's checkpoint-section image to e,
// straight from the account columns and the login log: the domain, how
// many covered accounts are still pristine, every other account sorted by
// address, then the retained login log, cold and resident tiers alike, as
// AllLogins returns it.
//
// Accounts the deriver covers that are still pristine — untouched since
// (implicit) provisioning — are represented only by that count: their
// content is a pure function of the address, so listing them would record
// derivable bytes. This is also what makes lazy and eager provisioning
// encode byte-identically: an eagerly created, still-pristine account
// elides to the same count. Sorting makes the image independent of shard
// layout and map iteration order, so two providers that processed the
// same events encode the same bytes whatever their interleaving history.
func (p *Provider) EncodeSection(e *snapshot.Encoder) {
	type row struct {
		email string
		sh    *accountShard
		slot  int32
	}
	var rows []row
	coveredDeviating := int64(0)
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for slot := int32(0); slot < int32(len(sh.locals)); slot++ {
			if d, covered := p.derive(sh.locals[slot]); covered {
				if sh.pristineLocked(slot, d) {
					continue
				}
				coveredDeviating++
			}
			rows = append(rows, row{sh.locals[slot] + "@" + p.domain, sh, slot})
		}
		sh.mu.Unlock()
	}
	implicit := int64(0)
	if p.deriver != nil {
		implicit = p.deriver.DerivedCount() - coveredDeviating
	}
	slices.SortFunc(rows, func(a, b row) int { return strings.Compare(a.email, b.email) })
	e.String(p.domain)
	e.Uint(uint64(implicit))
	e.Uint(uint64(len(rows)))
	for _, r := range rows {
		r.sh.encodeRow(e, r.slot, r.email)
	}
	p.allLogins().encode(e)
}

// encodeRow writes one account of the provider section.
func (sh *accountShard) encodeRow(e *snapshot.Encoder, slot int32, email string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e.String(email)
	e.String(sh.names[slot])
	e.String(sh.passwords[slot])
	e.Uint(uint64(sh.states[slot]))
	e.String(sh.forwards[slot])
	e.Uint(uint64(len(sh.inboxes[slot])))
	for _, m := range sh.inboxes[slot] {
		e.String(m.From)
		e.String(m.Subject)
		e.String(m.Body)
	}
	e.Time(nanoTime(sh.failedSince[slot]))
	e.Int(int64(sh.failedCount[slot]))
	e.Time(nanoTime(sh.throttledTil[slot]))
}

// pristineLocked reports whether a row still equals its derived pristine
// form, i.e. nothing has touched it since (implicit) provisioning.
// Caller holds sh.mu.
func (sh *accountShard) pristineLocked(slot int32, d DerivedAccount) bool {
	return State(sh.states[slot]) == Active &&
		sh.failedCount[slot] == 0 &&
		sh.failedSince[slot] == 0 &&
		sh.throttledTil[slot] == 0 &&
		len(sh.inboxes[slot]) == 0 &&
		sh.names[slot] == d.Name &&
		sh.passwords[slot] == d.Password &&
		sh.forwards[slot] == d.ForwardTo
}

// nanoTime converts a packed UnixNano back to a time (0 = zero).
func nanoTime(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

// appendLoginEvent encodes one login event.
func appendLoginEvent(e *snapshot.Encoder, ev *LoginEvent) {
	e.String(ev.Account)
	e.Time(ev.Time)
	e.Blob(ev.IP.AsSlice())
	e.String(ev.Method)
}

// EncodeLoginEvents encodes a count-prefixed run of login events — the
// format of the provider section's log and the monitor's per-detection
// login lists.
func EncodeLoginEvents(e *snapshot.Encoder, evs []LoginEvent) {
	e.Uint(uint64(len(evs)))
	for i := range evs {
		appendLoginEvent(e, &evs[i])
	}
}
