package emailprovider

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"tripwire/internal/imap"
	"tripwire/internal/snapshot"
)

// AccountState is one provider account in canonical (exported) form:
// plain values, times reduced to CanonTime, ready for codec round trips
// and deep-equality comparison.
type AccountState struct {
	Email        string
	Name         string
	Password     string
	State        State
	ForwardTo    string
	Inbox        []imap.Message
	FailedSince  time.Time
	FailedCount  int
	ThrottledTil time.Time
}

// ProviderState is the provider's full durable state: every deviating
// account plus the complete retained login log (resident and spilled tiers
// alike). Accounts are sorted by address so the export is independent of
// shard layout and map iteration order.
//
// Accounts the deriver covers that are still pristine — untouched since
// (implicit) provisioning — are represented only by the Implicit count:
// their content is a pure function of the address, so listing them would
// record derivable bytes. This is also what makes lazy and eager
// provisioning export byte-identically: an eagerly created, still-pristine
// account elides to the same count.
type ProviderState struct {
	Domain   string
	Implicit int64
	Accounts []AccountState
	Logins   []LoginEvent
}

// exportLocked builds the canonical form of one row. Caller holds sh.mu.
func (sh *accountShard) exportLocked(slot int32, domain string) AccountState {
	var inbox []imap.Message
	if n := len(sh.inboxes[slot]); n > 0 {
		inbox = make([]imap.Message, n)
		copy(inbox, sh.inboxes[slot])
	}
	return AccountState{
		Email:        sh.locals[slot] + "@" + domain,
		Name:         sh.names[slot],
		Password:     sh.passwords[slot],
		State:        State(sh.states[slot]),
		ForwardTo:    sh.forwards[slot],
		Inbox:        inbox,
		FailedSince:  nanoTime(sh.failedSince[slot]),
		FailedCount:  int(sh.failedCount[slot]),
		ThrottledTil: nanoTime(sh.throttledTil[slot]),
	}
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

// nanoTime converts the packed UnixNano back to CanonTime form (0 = zero).
func nanoTime(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

// ExportState captures the provider's durable state. The export is
// deterministic: two providers that processed the same events export
// byte-identical state regardless of interleaving history — and
// regardless of whether accounts were provisioned eagerly or derived
// lazily, because pristine covered accounts elide to the Implicit count
// either way.
func (p *Provider) ExportState() *ProviderState {
	st := &ProviderState{Domain: p.domain}
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
			st.Accounts = append(st.Accounts, sh.exportLocked(slot, p.domain))
		}
		sh.mu.Unlock()
	}
	if p.deriver != nil {
		st.Implicit = p.deriver.DerivedCount() - coveredDeviating
	}
	sort.Slice(st.Accounts, func(i, j int) bool { return st.Accounts[i].Email < st.Accounts[j].Email })
	if evs := canonLogins(p.AllLogins()); len(evs) > 0 {
		st.Logins = evs
	}
	return st
}

// canonLogins canonicalizes event times for deep-equal comparison.
func canonLogins(evs []LoginEvent) []LoginEvent {
	for i := range evs {
		evs[i].Time = snapshot.CanonTime(evs[i].Time)
	}
	return evs
}

// AppendLoginEvent encodes one login event. The format is shared by the
// provider snapshot section, the monitor's attributed-login export, and
// the on-disk cold log segments.
func AppendLoginEvent(e *snapshot.Encoder, ev LoginEvent) {
	e.String(ev.Account)
	e.Time(ev.Time)
	e.Blob(ev.IP.AsSlice())
	e.String(ev.Method)
}

// DecodeLoginEvent reads one login event. Decode errors surface through
// the decoder's sticky error; a malformed IP is reported directly.
func DecodeLoginEvent(d *snapshot.Decoder) (LoginEvent, error) {
	var ev LoginEvent
	ev.Account = d.String()
	ev.Time = d.Time()
	raw := d.Blob()
	ev.Method = d.String()
	if err := d.Err(); err != nil {
		return LoginEvent{}, err
	}
	if len(raw) > 0 {
		ip, ok := netip.AddrFromSlice(raw)
		if !ok {
			return LoginEvent{}, fmt.Errorf("%w: login event with %d-byte IP", snapshot.ErrCorrupt, len(raw))
		}
		ev.IP = ip
	}
	return ev, nil
}

// loginEventMinBytes is the least a login event can occupy encoded (four
// length/flag bytes), used to sanity-cap collection counts before decode
// allocates.
const loginEventMinBytes = 4

// EncodeLoginEvents encodes a count-prefixed run of login events — the
// payload format of both the provider section's log and cold segments.
func EncodeLoginEvents(e *snapshot.Encoder, evs []LoginEvent) {
	e.Uint(uint64(len(evs)))
	for _, ev := range evs {
		AppendLoginEvent(e, ev)
	}
}

// DecodeLoginEvents reads a count-prefixed run of login events.
func DecodeLoginEvents(d *snapshot.Decoder) ([]LoginEvent, error) {
	n := d.Count(loginEventMinBytes)
	if err := d.Err(); err != nil {
		return nil, err
	}
	var evs []LoginEvent
	if n > 0 {
		evs = make([]LoginEvent, 0, n)
	}
	for i := 0; i < n; i++ {
		ev, err := DecodeLoginEvent(d)
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// EncodeProviderState writes the export's snapshot-section image to e.
func EncodeProviderState(e *snapshot.Encoder, st *ProviderState) {
	e.String(st.Domain)
	e.Uint(uint64(st.Implicit))
	e.Uint(uint64(len(st.Accounts)))
	for i := range st.Accounts {
		a := &st.Accounts[i]
		e.String(a.Email)
		e.String(a.Name)
		e.String(a.Password)
		e.Uint(uint64(a.State))
		e.String(a.ForwardTo)
		e.Uint(uint64(len(a.Inbox)))
		for _, m := range a.Inbox {
			e.String(m.From)
			e.String(m.Subject)
			e.String(m.Body)
		}
		e.Time(a.FailedSince)
		e.Int(int64(a.FailedCount))
		e.Time(a.ThrottledTil)
	}
	EncodeLoginEvents(e, st.Logins)
}
