package emailprovider

import (
	"fmt"

	"tripwire/internal/imap"
	"tripwire/internal/snapshot"
)

// Checkpoints attest the provider section by digest and never read it
// back, so its decoder lives with the tests: the round trip through it is
// what proves EncodeProviderState lossless, which a digest relies on.

// providerImage is EncodeProviderState's output as bytes.
func providerImage(st *ProviderState) []byte {
	e := snapshot.NewEncoder()
	EncodeProviderState(e, st)
	return e.Bytes()
}

// DecodeProviderState parses EncodeProviderState's output.
func DecodeProviderState(data []byte) (*ProviderState, error) {
	d := snapshot.NewDecoder(data)
	st := &ProviderState{Domain: d.String(), Implicit: int64(d.Uint())}
	// An empty account still costs ≥ 9 bytes of length/flag fields.
	n := d.Count(9)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > 0 {
		st.Accounts = make([]AccountState, 0, n)
	}
	for i := 0; i < n; i++ {
		var a AccountState
		a.Email = d.String()
		a.Name = d.String()
		a.Password = d.String()
		a.State = State(d.Uint())
		a.ForwardTo = d.String()
		nm := d.Count(3)
		for j := 0; j < nm; j++ {
			a.Inbox = append(a.Inbox, imap.Message{From: d.String(), Subject: d.String(), Body: d.String()})
		}
		a.FailedSince = d.Time()
		a.FailedCount = int(d.Int())
		a.ThrottledTil = d.Time()
		if err := d.Err(); err != nil {
			return nil, err
		}
		st.Accounts = append(st.Accounts, a)
	}
	logins, err := DecodeLoginEvents(d)
	if err != nil {
		return nil, err
	}
	st.Logins = logins
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in provider state", snapshot.ErrCorrupt, d.Remaining())
	}
	return st, nil
}
