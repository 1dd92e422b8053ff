package webgen

import (
	"fmt"

	"tripwire/internal/snapshot"
)

// Checkpoints attest the webgen section by digest and never read it back,
// so its decoder lives with the tests: the round trip through it is what
// proves EncodeUniverseState lossless, which a digest relies on.

// universeImage is EncodeUniverseState's output as bytes.
func universeImage(st *UniverseState) []byte {
	e := snapshot.NewEncoder()
	EncodeUniverseState(e, st)
	return e.Bytes()
}

// DecodeUniverseState parses EncodeUniverseState's output.
func DecodeUniverseState(data []byte) (*UniverseState, error) {
	d := snapshot.NewDecoder(data)
	st := &UniverseState{NumSites: int(d.Int())}
	n := d.Count(1)
	prev := 0
	for i := 0; i < n; i++ {
		r := prev + int(d.Uint())
		if d.Err() == nil && (r <= prev || r > st.NumSites) {
			return nil, fmt.Errorf("%w: materialized rank %d out of range", snapshot.ErrCorrupt, r)
		}
		st.Materialized = append(st.Materialized, r)
		prev = r
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in universe state", snapshot.ErrCorrupt, d.Remaining())
	}
	return st, nil
}
