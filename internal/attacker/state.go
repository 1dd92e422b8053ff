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
	n := s.log.Len()
	e.Uint(uint64(n))
	for i := 0; i < n; i++ {
		r := s.recordLocked(s.log.At(i))
		e.String(r.Email)
		e.Time(r.Time)
		e.Blob(r.IP.AsSlice())
		e.Bool(r.Success)
	}
	var drawn []uint32
	for id, n := range s.draws {
		if n > 0 {
			drawn = append(drawn, uint32(id))
		}
	}
	slices.SortFunc(drawn, func(a, b uint32) int { return strings.Compare(s.log.Name(a), s.log.Name(b)) })
	e.Uint(uint64(len(drawn)))
	for _, id := range drawn {
		e.String(s.log.Name(id))
		e.Uint(s.draws[id])
	}
}
