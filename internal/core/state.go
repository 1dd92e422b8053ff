package core

import (
	"sort"
	"time"

	"tripwire/internal/crawler"
	"tripwire/internal/emailprovider"
	"tripwire/internal/identity"
	"tripwire/internal/snapshot"
)

// RegistrationState is one burned registration in canonical form. The
// identity is embedded by value — registrations own their identity for
// snapshot purposes; the pool/control/unused sets never overlap with the
// burned set.
type RegistrationState struct {
	Identity identity.Identity
	Domain   string
	Rank     int
	Category string
	When     time.Time
	Code     crawler.Code
	Status   AccountStatus
	Manual   bool
}

// PoolSegmentState is one FIFO pool segment in canonical form: either a
// contiguous run of not-yet-materialized identity indexes [From, To),
// provisioned or returned, or a single explicitly added identity.
type PoolSegmentState struct {
	IsItem   bool
	From, To int64             // index span when !IsItem
	Item     identity.Identity // when IsItem
}

// SpanState is a half-open run [From, To) of identity indexes of one
// class belonging to the monitored-unused universe.
type SpanState struct{ From, To int64 }

// LedgerState is the Tripwire database in canonical form: FIFO identity
// pools (segment order preserved — it is the determinism-bearing part),
// the span-provisioned unused universe with its burned ranks, burned
// registrations, control accounts, and the explicitly provisioned unused
// set. Span-covered pool members appear only as index arithmetic, so the
// export stays O(deviation) even with a 10M-account universe.
type LedgerState struct {
	PoolHard      []PoolSegmentState  // FIFO order
	PoolEasy      []PoolSegmentState  // FIFO order
	SpansHard     []SpanState         // unused-universe index spans
	SpansEasy     []SpanState         // unused-universe index spans
	Burned        []int64             // sorted burned span ranks
	Registrations []RegistrationState // sorted by identity email
	Controls      []identity.Identity // sorted by email
	Unused        []string            // sorted lowercased explicit emails
}

// canonIdentity copies an identity with its times canonicalized.
func canonIdentity(id *identity.Identity) identity.Identity {
	c := *id
	c.Birthday = snapshot.CanonTime(c.Birthday)
	return c
}

func exportPool(p *classPool) []PoolSegmentState {
	var out []PoolSegmentState
	for i := p.head; i < len(p.segs); i++ {
		s := &p.segs[i]
		if s.id != nil {
			out = append(out, PoolSegmentState{IsItem: true, Item: canonIdentity(s.id)})
		} else if s.from < s.to {
			out = append(out, PoolSegmentState{From: s.from, To: s.to})
		}
	}
	return out
}

func exportSpans(spans []rankSpan) []SpanState {
	var out []SpanState
	for _, s := range spans {
		out = append(out, SpanState{From: s.from, To: s.to})
	}
	return out
}

func exportRegistration(reg *Registration) RegistrationState {
	return RegistrationState{
		Identity: canonIdentity(reg.Identity),
		Domain:   reg.Domain,
		Rank:     reg.Rank,
		Category: reg.Category,
		When:     snapshot.CanonTime(reg.When),
		Code:     reg.Code,
		Status:   reg.Status,
		Manual:   reg.Manual,
	}
}

// ExportState captures the ledger. Pool segments keep their FIFO order;
// map-backed sets are sorted, so equivalent ledgers export identically.
// Registrations sort by the lowercased email their shards key them by.
func (l *Ledger) ExportState() *LedgerState {
	st := &LedgerState{}
	type keyedReg struct {
		email string
		reg   *Registration
	}
	var regs []keyedReg
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for email, reg := range sh.regs {
			regs = append(regs, keyedReg{email, reg})
		}
		sh.mu.Unlock()
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].email < regs[j].email })
	if len(regs) > 0 {
		st.Registrations = make([]RegistrationState, len(regs))
		for i, r := range regs {
			st.Registrations[i] = exportRegistration(r.reg)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st.PoolHard = exportPool(&l.pools[identity.Hard])
	st.PoolEasy = exportPool(&l.pools[identity.Easy])
	st.SpansHard = exportSpans(l.spans[identity.Hard])
	st.SpansEasy = exportSpans(l.spans[identity.Easy])
	for rank := range l.burned {
		st.Burned = append(st.Burned, rank)
	}
	sort.Slice(st.Burned, func(i, j int) bool { return st.Burned[i] < st.Burned[j] })
	for _, id := range l.controls {
		st.Controls = append(st.Controls, canonIdentity(id))
	}
	sort.Slice(st.Controls, func(i, j int) bool { return st.Controls[i].Email < st.Controls[j].Email })
	for email := range l.unused {
		st.Unused = append(st.Unused, email)
	}
	sort.Strings(st.Unused)
	return st
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

func encodeIdentities(e *snapshot.Encoder, ids []identity.Identity) {
	e.Uint(uint64(len(ids)))
	for i := range ids {
		appendIdentity(e, &ids[i])
	}
}

func encodePoolSegments(e *snapshot.Encoder, segs []PoolSegmentState) {
	e.Uint(uint64(len(segs)))
	for i := range segs {
		s := &segs[i]
		e.Bool(s.IsItem)
		if s.IsItem {
			appendIdentity(e, &s.Item)
		} else {
			e.Int(s.From)
			e.Int(s.To)
		}
	}
}

func encodeSpans(e *snapshot.Encoder, spans []SpanState) {
	e.Uint(uint64(len(spans)))
	for _, s := range spans {
		e.Int(s.From)
		e.Int(s.To)
	}
}

// EncodeLedgerState writes the export's snapshot-section image to e.
func EncodeLedgerState(e *snapshot.Encoder, st *LedgerState) {
	encodePoolSegments(e, st.PoolHard)
	encodePoolSegments(e, st.PoolEasy)
	encodeSpans(e, st.SpansHard)
	encodeSpans(e, st.SpansEasy)
	e.Uint(uint64(len(st.Burned)))
	for _, rank := range st.Burned {
		e.Int(rank)
	}
	e.Uint(uint64(len(st.Registrations)))
	for i := range st.Registrations {
		r := &st.Registrations[i]
		appendIdentity(e, &r.Identity)
		e.String(r.Domain)
		e.Int(int64(r.Rank))
		e.String(r.Category)
		e.Time(r.When)
		e.Uint(uint64(r.Code))
		e.Uint(uint64(r.Status))
		e.Bool(r.Manual)
	}
	encodeIdentities(e, st.Controls)
	e.Uint(uint64(len(st.Unused)))
	for _, email := range st.Unused {
		e.String(email)
	}
}

// ControlSeen is one control account's observed-login count.
type ControlSeen struct {
	Account string
	Count   int
}

// DetectionState is one site detection in canonical form; per-account
// login lists are flattened into a slice sorted by account.
type DetectionState struct {
	Domain             string
	Rank               int
	Category           string
	FirstSeen          time.Time
	LastSeen           time.Time
	HardAccessed       bool
	AccountsRegistered int
	AccountsAccessed   int
	Logins             []AccountLogins
}

// AccountLogins is the attributed events of one account at one site.
type AccountLogins struct {
	Account string
	Events  []emailprovider.LoginEvent
}

// MonitorState is the monitor's durable view: the dump cursor, control
// bookkeeping, alarm count, and every detection in first-detection order.
// The detections' per-account logins are the full attributed-login
// history.
type MonitorState struct {
	LastDump         time.Time
	ExpectedControls []string // sorted
	SeenControls     []ControlSeen
	Alarms           int
	Detections       []DetectionState // first-detection order
}

// ExportState captures the monitor.
func (m *Monitor) ExportState() *MonitorState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &MonitorState{LastDump: snapshot.CanonTime(m.lastDump), Alarms: len(m.alarms)}
	for acct := range m.expectedControls {
		st.ExpectedControls = append(st.ExpectedControls, acct)
	}
	sort.Strings(st.ExpectedControls)
	for acct, n := range m.seenControls {
		st.SeenControls = append(st.SeenControls, ControlSeen{Account: acct, Count: n})
	}
	sort.Slice(st.SeenControls, func(i, j int) bool { return st.SeenControls[i].Account < st.SeenControls[j].Account })
	for _, domain := range m.order {
		det := m.detections[domain]
		ds := DetectionState{
			Domain:             det.Domain,
			Rank:               det.Rank,
			Category:           det.Category,
			FirstSeen:          snapshot.CanonTime(det.FirstSeen),
			LastSeen:           snapshot.CanonTime(det.LastSeen),
			HardAccessed:       det.HardAccessed,
			AccountsRegistered: det.AccountsRegistered,
			AccountsAccessed:   det.AccountsAccessed,
		}
		for acct, evs := range det.Logins {
			cp := make([]emailprovider.LoginEvent, len(evs))
			copy(cp, evs)
			for i := range cp {
				cp[i].Time = snapshot.CanonTime(cp[i].Time)
			}
			ds.Logins = append(ds.Logins, AccountLogins{Account: acct, Events: cp})
		}
		sort.Slice(ds.Logins, func(i, j int) bool { return ds.Logins[i].Account < ds.Logins[j].Account })
		st.Detections = append(st.Detections, ds)
	}
	return st
}

// EncodeMonitorState writes the export's snapshot-section image to e.
func EncodeMonitorState(e *snapshot.Encoder, st *MonitorState) {
	e.Time(st.LastDump)
	e.Uint(uint64(len(st.ExpectedControls)))
	for _, acct := range st.ExpectedControls {
		e.String(acct)
	}
	e.Uint(uint64(len(st.SeenControls)))
	for _, cs := range st.SeenControls {
		e.String(cs.Account)
		e.Int(int64(cs.Count))
	}
	e.Int(int64(st.Alarms))
	e.Uint(uint64(len(st.Detections)))
	for i := range st.Detections {
		det := &st.Detections[i]
		e.String(det.Domain)
		e.Int(int64(det.Rank))
		e.String(det.Category)
		e.Time(det.FirstSeen)
		e.Time(det.LastSeen)
		e.Bool(det.HardAccessed)
		e.Int(int64(det.AccountsRegistered))
		e.Int(int64(det.AccountsAccessed))
		e.Uint(uint64(len(det.Logins)))
		for _, al := range det.Logins {
			e.String(al.Account)
			emailprovider.EncodeLoginEvents(e, al.Events)
		}
	}
}
