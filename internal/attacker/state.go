package attacker

import (
	"slices"
	"strings"

	"tripwire/internal/snapshot"
)

// EncodeSection writes the attacker's checkpoint-section image to e,
// straight from live state: the campaign's ground truth (breach times by
// domain, abandoned accounts and resold dumps, each sorted), then its
// stuffer's attempt log in append order and the per-account draw counters,
// sorted by account, that make every future probabilistic choice
// reproducible.
func (c *Campaign) EncodeSection(e *snapshot.Encoder) {
	c.mu.Lock()
	e.Uint(uint64(len(c.breaches)))
	for _, domain := range snapshot.SortedKeys(c.breaches) {
		e.String(domain)
		e.Time(c.breaches[domain])
	}
	e.Uint(uint64(len(c.dead)))
	for _, email := range snapshot.SortedKeys(c.dead) {
		e.String(email)
	}
	e.Uint(uint64(len(c.resales)))
	resales := slices.Clone(c.resales)
	slices.Sort(resales)
	for _, domain := range resales {
		e.String(domain)
	}
	c.mu.Unlock()

	s := c.stuffer
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.records.Len()
	e.Uint(uint64(n))
	for i := 0; i < n; i++ {
		r := s.recordLocked(s.records.At(i))
		e.String(r.Email)
		e.Time(r.Time)
		e.Blob(r.IP.AsSlice())
		e.Bool(r.Success)
	}
	var drawn []stuffedAccount
	for _, a := range s.accounts {
		if a.draws > 0 {
			drawn = append(drawn, a)
		}
	}
	slices.SortFunc(drawn, func(a, b stuffedAccount) int { return strings.Compare(a.email, b.email) })
	e.Uint(uint64(len(drawn)))
	for _, a := range drawn {
		e.String(a.email)
		e.Uint(a.draws)
	}
}
