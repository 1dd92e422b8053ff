package webgen

import "tripwire/internal/snapshot"

// EncodeSection writes the universe's checkpoint-section image to e: its
// rank count and which ranks have been materialized so far. Site contents
// are pure functions of (config, rank) and never need serializing — the
// rank set is what a resumed run must re-derive to reach the same
// footprint. Ranks are delta-encoded: the set is sorted and typically
// dense, so the section stays small even at millions of materialized
// sites. It must only be called from the simulation driver between
// epochs (materialization happens inside wave events, whose completion
// the driver has already observed).
func (u *Universe) EncodeSection(e *snapshot.Encoder) {
	e.Int(int64(len(u.slots)))
	e.Uint(uint64(u.MaterializedSites()))
	prev := 0
	for i := range u.slots {
		if u.slots[i].site != nil {
			e.Uint(uint64(i + 1 - prev))
			prev = i + 1
		}
	}
}
