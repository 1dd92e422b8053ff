package attacker

import (
	"sort"
	"time"

	"tripwire/internal/snapshot"
)

// BreachState is one ground-truth exfil record.
type BreachState struct {
	Domain string
	At     time.Time
}

// DrawState is one account's deterministic draw counter.
type DrawState struct {
	Email string
	N     uint64
}

// CampaignState is the campaign's durable ground truth: breach times,
// abandoned accounts, and resold dumps, all sorted for deterministic
// export.
type CampaignState struct {
	Breaches []BreachState // sorted by domain
	Dead     []string      // sorted
	Resales  []string      // sorted
}

// StufferState is the botnet's durable state: the attacker-side attempt
// log in append order and the per-account draw counters that make every
// future probabilistic choice reproducible.
type StufferState struct {
	Records []LoginRecord
	Draws   []DrawState // sorted by email
}

// AttackerState bundles campaign and stuffer for one snapshot section.
type AttackerState struct {
	Campaign CampaignState
	Stuffer  StufferState
}

// ExportState captures the campaign's ground truth.
func (c *Campaign) ExportState() CampaignState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CampaignState{}
	for domain, at := range c.breaches {
		st.Breaches = append(st.Breaches, BreachState{Domain: domain, At: snapshot.CanonTime(at)})
	}
	sort.Slice(st.Breaches, func(i, j int) bool { return st.Breaches[i].Domain < st.Breaches[j].Domain })
	for email := range c.dead {
		st.Dead = append(st.Dead, email)
	}
	sort.Strings(st.Dead)
	st.Resales = append(st.Resales, c.resales...)
	sort.Strings(st.Resales)
	return st
}

// ExportState captures the stuffer's log and draw counters.
func (s *Stuffer) ExportState() StufferState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StufferState{}
	if n := s.records.Len(); n > 0 {
		st.Records = s.records.AppendTo(nil, 0, n)
		for i := range st.Records {
			st.Records[i].Time = snapshot.CanonTime(st.Records[i].Time)
		}
	}
	for email, n := range s.draws {
		st.Draws = append(st.Draws, DrawState{Email: email, N: n})
	}
	sort.Slice(st.Draws, func(i, j int) bool { return st.Draws[i].Email < st.Draws[j].Email })
	return st
}

// EncodeAttackerState writes the export's snapshot-section image to e.
func EncodeAttackerState(e *snapshot.Encoder, st *AttackerState) {
	e.Uint(uint64(len(st.Campaign.Breaches)))
	for _, b := range st.Campaign.Breaches {
		e.String(b.Domain)
		e.Time(b.At)
	}
	e.Uint(uint64(len(st.Campaign.Dead)))
	for _, email := range st.Campaign.Dead {
		e.String(email)
	}
	e.Uint(uint64(len(st.Campaign.Resales)))
	for _, domain := range st.Campaign.Resales {
		e.String(domain)
	}
	e.Uint(uint64(len(st.Stuffer.Records)))
	for _, r := range st.Stuffer.Records {
		e.String(r.Email)
		e.Time(r.Time)
		e.Blob(r.IP.AsSlice())
		e.Bool(r.Success)
	}
	e.Uint(uint64(len(st.Stuffer.Draws)))
	for _, dr := range st.Stuffer.Draws {
		e.String(dr.Email)
		e.Uint(dr.N)
	}
}
