package core

import (
	"fmt"

	"tripwire/internal/crawler"
	"tripwire/internal/emailprovider"
	"tripwire/internal/identity"
	"tripwire/internal/snapshot"
)

// Checkpoints attest the ledger and monitor sections by digest and never
// read them back, so their decoders live with the tests: the round trips
// through them are what prove EncodeLedgerState and EncodeMonitorState
// lossless, which a digest relies on.

// ledgerImage is EncodeLedgerState's output as bytes.
func ledgerImage(st *LedgerState) []byte {
	e := snapshot.NewEncoder()
	EncodeLedgerState(e, st)
	return e.Bytes()
}

// monitorImage is EncodeMonitorState's output as bytes.
func monitorImage(st *MonitorState) []byte {
	e := snapshot.NewEncoder()
	EncodeMonitorState(e, st)
	return e.Bytes()
}

func decodeIdentity(d *snapshot.Decoder) identity.Identity {
	return identity.Identity{
		ID:        int(d.Int()),
		FirstName: d.String(),
		LastName:  d.String(),
		Username:  d.String(),
		LocalPart: d.String(),
		Email:     d.String(),
		Password:  d.String(),
		Class:     identity.PasswordClass(d.Uint()),
		Street:    d.String(),
		City:      d.String(),
		State:     d.String(),
		Zip:       d.String(),
		Phone:     d.String(),
		Birthday:  d.Time(),
		Employer:  d.String(),
	}
}

// identityMinBytes: an identity costs at least 15 length/flag bytes.
const identityMinBytes = 15

func decodeIdentities(d *snapshot.Decoder) []identity.Identity {
	n := d.Count(identityMinBytes)
	var out []identity.Identity
	if n > 0 {
		out = make([]identity.Identity, 0, n)
	}
	for i := 0; i < n; i++ {
		out = append(out, decodeIdentity(d))
	}
	return out
}

func decodePoolSegments(d *snapshot.Decoder) []PoolSegmentState {
	n := d.Count(3)
	var out []PoolSegmentState
	for i := 0; i < n; i++ {
		var s PoolSegmentState
		s.IsItem = d.Bool()
		if s.IsItem {
			s.Item = decodeIdentity(d)
		} else {
			s.From = d.Int()
			s.To = d.Int()
		}
		if d.Err() != nil {
			return out
		}
		out = append(out, s)
	}
	return out
}

func decodeSpans(d *snapshot.Decoder) []SpanState {
	n := d.Count(2)
	var out []SpanState
	for i := 0; i < n; i++ {
		out = append(out, SpanState{From: d.Int(), To: d.Int()})
	}
	return out
}

// DecodeLedgerState parses EncodeLedgerState's output.
func DecodeLedgerState(data []byte) (*LedgerState, error) {
	d := snapshot.NewDecoder(data)
	st := &LedgerState{}
	st.PoolHard = decodePoolSegments(d)
	st.PoolEasy = decodePoolSegments(d)
	st.SpansHard = decodeSpans(d)
	st.SpansEasy = decodeSpans(d)
	nb := d.Count(1)
	for i := 0; i < nb; i++ {
		st.Burned = append(st.Burned, d.Int())
	}
	n := d.Count(identityMinBytes + 7)
	for i := 0; i < n; i++ {
		var r RegistrationState
		r.Identity = decodeIdentity(d)
		r.Domain = d.String()
		r.Rank = int(d.Int())
		r.Category = d.String()
		r.When = d.Time()
		r.Code = crawler.Code(d.Uint())
		r.Status = AccountStatus(d.Uint())
		r.Manual = d.Bool()
		if err := d.Err(); err != nil {
			return nil, err
		}
		st.Registrations = append(st.Registrations, r)
	}
	st.Controls = decodeIdentities(d)
	nu := d.Count(1)
	for i := 0; i < nu; i++ {
		st.Unused = append(st.Unused, d.String())
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in ledger state", snapshot.ErrCorrupt, d.Remaining())
	}
	return st, nil
}

// DecodeMonitorState parses EncodeMonitorState's output.
func DecodeMonitorState(data []byte) (*MonitorState, error) {
	d := snapshot.NewDecoder(data)
	st := &MonitorState{LastDump: d.Time()}
	n := d.Count(1)
	for i := 0; i < n; i++ {
		st.ExpectedControls = append(st.ExpectedControls, d.String())
	}
	n = d.Count(2)
	for i := 0; i < n; i++ {
		st.SeenControls = append(st.SeenControls, ControlSeen{Account: d.String(), Count: int(d.Int())})
	}
	st.Alarms = int(d.Int())
	n = d.Count(10)
	for i := 0; i < n; i++ {
		var det DetectionState
		det.Domain = d.String()
		det.Rank = int(d.Int())
		det.Category = d.String()
		det.FirstSeen = d.Time()
		det.LastSeen = d.Time()
		det.HardAccessed = d.Bool()
		det.AccountsRegistered = int(d.Int())
		det.AccountsAccessed = int(d.Int())
		na := d.Count(2)
		for j := 0; j < na; j++ {
			acct := d.String()
			evs, err := emailprovider.DecodeLoginEvents(d)
			if err != nil {
				return nil, err
			}
			det.Logins = append(det.Logins, AccountLogins{Account: acct, Events: evs})
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		st.Detections = append(st.Detections, det)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in monitor state", snapshot.ErrCorrupt, d.Remaining())
	}
	return st, nil
}
