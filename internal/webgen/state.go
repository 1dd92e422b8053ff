package webgen

import "tripwire/internal/snapshot"

// UniverseState is the universe's durable lazy-materialization record:
// which site ranks have been derived so far. Site contents themselves are
// pure functions of (config, rank) and never need serializing — the rank
// set is what a resumed run must re-derive to reach the same footprint.
type UniverseState struct {
	NumSites     int
	Materialized []int // sorted 1-based ranks
}

// ExportState captures the materialization set. It must only be called
// from the simulation driver between epochs (materialization happens
// inside wave events, whose completion the driver has already observed).
func (u *Universe) ExportState() *UniverseState {
	st := &UniverseState{NumSites: len(u.slots)}
	for i := range u.slots {
		if u.slots[i].site != nil {
			st.Materialized = append(st.Materialized, i+1)
		}
	}
	return st
}

// EncodeUniverseState writes the export's snapshot-section image to e.
// Ranks are delta-encoded: the set is sorted and typically dense, so the
// section stays small even at millions of materialized sites.
func EncodeUniverseState(e *snapshot.Encoder, st *UniverseState) {
	e.Int(int64(st.NumSites))
	e.Uint(uint64(len(st.Materialized)))
	prev := 0
	for _, r := range st.Materialized {
		e.Uint(uint64(r - prev))
		prev = r
	}
}
