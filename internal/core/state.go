package core

import (
	"slices"
	"strings"

	"tripwire/internal/emailprovider"
	"tripwire/internal/identity"
	"tripwire/internal/snapshot"
)

// EncodeSection writes the ledger's checkpoint-section image to e,
// straight from live state: both FIFO identity pools (segment order kept —
// it is the determinism-bearing part), the unused universe's index spans
// and burned ranks, burned registrations with their identities whole,
// control accounts, and the explicitly provisioned unused set. Span-covered
// pool members appear only as index arithmetic, so the image stays
// O(deviation) even with a 10M-account universe. Map-backed sets are
// sorted — registrations by the lowercased email they are keyed by — so
// equivalent ledgers encode identically.
func (l *Ledger) EncodeSection(e *snapshot.Encoder) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pools[identity.Hard].encode(e)
	l.pools[identity.Easy].encode(e)
	encodeSpans(e, l.spans[identity.Hard])
	encodeSpans(e, l.spans[identity.Easy])
	e.Uint(uint64(len(l.burned)))
	for _, rank := range snapshot.SortedKeys(l.burned) {
		e.Int(rank)
	}
	e.Uint(uint64(len(l.regs)))
	for _, email := range snapshot.SortedKeys(l.regs) {
		r := l.regs[email]
		appendIdentity(e, r.Identity)
		e.String(r.Domain)
		e.Int(int64(r.Rank))
		e.String(r.Category)
		e.Time(r.When)
		e.Uint(uint64(r.Code))
		e.Uint(uint64(r.Status))
		e.Bool(r.Manual)
	}
	controls := make([]*identity.Identity, 0, len(l.controls))
	for _, id := range l.controls {
		controls = append(controls, id)
	}
	slices.SortFunc(controls, func(a, b *identity.Identity) int { return strings.Compare(a.Email, b.Email) })
	e.Uint(uint64(len(controls)))
	for _, id := range controls {
		appendIdentity(e, id)
	}
	e.Uint(uint64(len(l.unused)))
	for _, email := range snapshot.SortedKeys(l.unused) {
		e.String(email)
	}
}

// encode writes the pool's live segments in FIFO order: an explicit
// identity whole, a span as its index bounds. Used-up spans are skipped.
func (p *classPool) encode(e *snapshot.Encoder) {
	live := p.segs[p.head:]
	n := 0
	for i := range live {
		if s := &live[i]; s.id != nil || s.from < s.to {
			n++
		}
	}
	e.Uint(uint64(n))
	for i := range live {
		switch s := &live[i]; {
		case s.id != nil:
			e.Bool(true)
			appendIdentity(e, s.id)
		case s.from < s.to:
			e.Bool(false)
			e.Int(s.from)
			e.Int(s.to)
		}
	}
}

func encodeSpans(e *snapshot.Encoder, spans []rankSpan) {
	e.Uint(uint64(len(spans)))
	for _, s := range spans {
		e.Int(s.from)
		e.Int(s.to)
	}
}

func appendIdentity(e *snapshot.Encoder, id *identity.Identity) {
	e.Int(int64(id.ID))
	e.String(id.FirstName)
	e.String(id.LastName)
	e.String(id.Username)
	e.String(id.LocalPart)
	e.String(id.Email)
	e.String(id.Password)
	e.Uint(uint64(id.Class))
	e.String(id.Street)
	e.String(id.City)
	e.String(id.State)
	e.String(id.Zip)
	e.String(id.Phone)
	e.Time(id.Birthday)
	e.String(id.Employer)
}

// EncodeSection writes the monitor's checkpoint-section image to e: the
// dump cursor, control bookkeeping, alarm count, and every detection in
// first-detection order with its attributed logins per account, sorted by
// account — the full attributed-login history.
func (m *Monitor) EncodeSection(e *snapshot.Encoder) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e.Time(m.lastDump)
	e.Uint(uint64(len(m.expectedControls)))
	for _, acct := range snapshot.SortedKeys(m.expectedControls) {
		e.String(acct)
	}
	e.Uint(uint64(len(m.controlLogins.logins)))
	for _, acct := range m.controlLogins.Accounts() {
		e.String(acct)
		e.Int(int64(len(m.controlLogins.logins[acct].logins)))
	}
	e.Int(int64(len(m.alarms)))
	e.Uint(uint64(len(m.order)))
	var buf []emailprovider.LoginEvent
	for _, domain := range m.order {
		det := m.detections[domain]
		e.String(det.Domain)
		e.Int(int64(det.Rank))
		e.String(det.Category)
		e.Time(det.FirstSeen)
		e.Time(det.LastSeen)
		e.Bool(det.HardAccessed)
		e.Int(int64(det.AccountsRegistered))
		e.Int(int64(det.AccountsAccessed))
		e.Uint(uint64(len(det.logins)))
		for _, acct := range det.Accounts() {
			e.String(acct)
			buf = det.appendLogins(buf[:0], acct)
			emailprovider.EncodeLoginEvents(e, buf)
		}
	}
}
