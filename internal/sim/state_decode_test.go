package sim

import (
	"fmt"

	"tripwire/internal/crawler"
	"tripwire/internal/identity"
	"tripwire/internal/snapshot"
)

// Checkpoints attest the outputs section by digest and never read it back,
// so its decoder lives with the tests: the round trip through it is what
// proves encodeOutputs lossless, which a digest relies on.

// sectionImage is the byte image exportSection writes for one section.
func sectionImage(p *Pilot, name string) []byte {
	e := snapshot.NewEncoder()
	p.exportSection(e, name)
	return e.Bytes()
}

// progressImage is encodeProgress's output as bytes.
func progressImage(st progressState) []byte {
	e := snapshot.NewEncoder()
	encodeProgress(e, st)
	return e.Bytes()
}

// outputsImage is encodeOutputs's output as bytes.
func outputsImage(st outputsState) []byte {
	e := snapshot.NewEncoder()
	encodeOutputs(e, st)
	return e.Bytes()
}

func decodeOutputs(data []byte) (outputsState, error) {
	d := snapshot.NewDecoder(data)
	var st outputsState
	if n := d.Count(9); n > 0 {
		st.Attempts = make([]Attempt, n)
		for i := range st.Attempts {
			a := &st.Attempts[i]
			a.Domain = d.String()
			a.Rank = int(d.Int())
			a.Class = identity.PasswordClass(d.Int())
			a.Code = crawler.Code(d.Int())
			a.Exposed = d.Bool()
			a.Manual = d.Bool()
			a.When = d.Time()
			a.Email = d.String()
			a.PageLoad = int(d.Int())
		}
	}
	if n := d.Count(2); n > 0 {
		st.DetectionTimes = make([]domainTime, n)
		for i := range st.DetectionTimes {
			st.DetectionTimes[i].Domain = d.String()
			st.DetectionTimes[i].At = d.Time()
		}
	}
	if n := d.Count(1); n > 0 {
		st.Missed = make([]string, n)
		for i := range st.Missed {
			st.Missed[i] = d.String()
		}
	}
	if err := d.Err(); err != nil {
		return outputsState{}, fmt.Errorf("outputs section: %w", err)
	}
	if d.Remaining() != 0 {
		return outputsState{}, fmt.Errorf("outputs section: %w: %d trailing bytes", snapshot.ErrCorrupt, d.Remaining())
	}
	return st, nil
}
