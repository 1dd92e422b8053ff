package attacker

import (
	"fmt"
	"net/netip"

	"tripwire/internal/snapshot"
)

// Checkpoints attest the attacker section by digest and never read it
// back, so its decoder lives with the tests: the round trip through it is
// what proves EncodeAttackerState lossless, which a digest relies on.

// attackerImage is EncodeAttackerState's output as bytes.
func attackerImage(st *AttackerState) []byte {
	e := snapshot.NewEncoder()
	EncodeAttackerState(e, st)
	return e.Bytes()
}

// DecodeAttackerState parses EncodeAttackerState's output.
func DecodeAttackerState(data []byte) (*AttackerState, error) {
	d := snapshot.NewDecoder(data)
	st := &AttackerState{}
	n := d.Count(2)
	for i := 0; i < n; i++ {
		st.Campaign.Breaches = append(st.Campaign.Breaches, BreachState{Domain: d.String(), At: d.Time()})
	}
	n = d.Count(1)
	for i := 0; i < n; i++ {
		st.Campaign.Dead = append(st.Campaign.Dead, d.String())
	}
	n = d.Count(1)
	for i := 0; i < n; i++ {
		st.Campaign.Resales = append(st.Campaign.Resales, d.String())
	}
	n = d.Count(4)
	for i := 0; i < n; i++ {
		var r LoginRecord
		r.Email = d.String()
		r.Time = d.Time()
		raw := d.Blob()
		r.Success = d.Bool()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if len(raw) > 0 {
			ip, ok := netip.AddrFromSlice(raw)
			if !ok {
				return nil, fmt.Errorf("%w: login record with %d-byte IP", snapshot.ErrCorrupt, len(raw))
			}
			r.IP = ip
		}
		st.Stuffer.Records = append(st.Stuffer.Records, r)
	}
	n = d.Count(2)
	for i := 0; i < n; i++ {
		st.Stuffer.Draws = append(st.Stuffer.Draws, DrawState{Email: d.String(), N: d.Uint()})
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in attacker state", snapshot.ErrCorrupt, d.Remaining())
	}
	return st, nil
}
