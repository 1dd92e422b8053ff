package tripwire

import (
	"fmt"
	"strings"
	"time"
)

// phase is the study lifecycle marker behind StudyStatus.Phase.
type phase int32

const (
	phasePending phase = iota
	phaseRunning
	phaseDone
	phaseFailed
	phaseInterrupted
)

func (p phase) String() string {
	switch p {
	case phasePending:
		return "pending"
	case phaseRunning:
		return "running"
	case phaseDone:
		return "done"
	case phaseFailed:
		return "failed"
	case phaseInterrupted:
		return "interrupted"
	default:
		return "phase(?)"
	}
}

// StudyStatus is the structured progress record of a study: everything a
// supervisor used to scrape out of the Summary text, as a JSON-ready
// value. It is safe to request from any goroutine at any point in the
// study's life — before, during, and after the run — and the service
// control plane (GET /studies/{id}) serves it verbatim.
//
// Every field is deterministic for a given configuration: no wall-clock
// timestamps appear here, so a run stopped at an epoch boundary and then
// resumed, from its checkpoint or by a rerun, reports byte-identical final
// status to an uninterrupted run (a test pins this for a study paused and
// resumed through the HTTP API at 1/2/4/8 workers).
type StudyStatus struct {
	// Phase is the lifecycle position: pending (built, not started),
	// running, done, failed (validation or run error), or interrupted
	// (cancelled before the configured end date).
	Phase string `json:"phase"`
	Seed  int64  `json:"seed"`
	// Sites is the size of the synthetic web universe.
	Sites int       `json:"sites"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// VirtualNow is the simulation clock's current position.
	VirtualNow time.Time `json:"virtual_now"`
	// WavesDone/WavesTotal count completed registration waves against the
	// schedule implied by the configured batches.
	WavesDone  int `json:"waves_done"`
	WavesTotal int `json:"waves_total"`
	// EpochsRun counts completed timeline epochs (the checkpoint/resume
	// replay unit).
	EpochsRun uint64 `json:"epochs_run"`
	// Attempts counts crawl registration attempts recorded so far.
	Attempts int `json:"attempts"`
	// RegisteredSites counts distinct sites holding at least one valid
	// Tripwire registration.
	RegisteredSites int `json:"registered_sites"`
	// Detections counts sites the monitor has implicated so far.
	Detections int `json:"detections"`
	// IntegrityAlarms counts monitor integrity alarms; any non-zero value
	// means an unused honeypot account was accessed.
	IntegrityAlarms int `json:"integrity_alarms"`
	// Events is the event stream's high-water sequence number (see
	// EventsSince).
	Events uint64 `json:"events"`
	// Interrupted reports a run cancelled before the configured end date.
	Interrupted bool `json:"interrupted"`
	// Error carries the validation or run error, when there is one.
	Error string `json:"error,omitempty"`
}

// Status returns the study's structured progress record. It is cheap —
// atomic reads of a progress mirror the driver publishes at epoch
// boundaries — and safe to call concurrently with a running study.
func (s *Study) Status() StudyStatus {
	ph := phase(s.phase.Load())
	st := StudyStatus{
		Phase:       ph.String(),
		Seed:        s.cfg.Seed,
		Sites:       s.cfg.Web.NumSites,
		Start:       s.cfg.Start,
		End:         s.cfg.End,
		VirtualNow:  s.cfg.Start,
		Events:      s.events.Len(),
		Interrupted: ph == phaseInterrupted,
	}
	if ph == phaseFailed || ph == phaseInterrupted {
		// The terminal phase was stored after err, so observing it above
		// makes this read race-free.
		if err := s.err; err != nil {
			st.Error = err.Error()
		}
	}
	if s.pilot == nil {
		return st
	}
	pr := s.pilot.Progress()
	st.VirtualNow = pr.VirtualNow
	st.WavesDone = pr.WavesDone
	st.WavesTotal = pr.WavesTotal
	st.EpochsRun = pr.EpochsRun
	st.Attempts = pr.Attempts
	st.RegisteredSites = pr.RegisteredSites
	st.Detections = pr.Detections
	st.IntegrityAlarms = pr.IntegrityAlarms
	return st
}

// FormatStatus renders a StudyStatus as the human-readable block that
// heads Summary. Status is the data, FormatStatus the presentation; keep
// machine consumers on Status.
func FormatStatus(st StudyStatus) string {
	day := func(t time.Time) string { return t.Format("2006-01-02") }
	var b strings.Builder
	fmt.Fprintf(&b, "phase: %s   seed: %d   sites: %d\n", st.Phase, st.Seed, st.Sites)
	fmt.Fprintf(&b, "window: %s to %s   virtual now: %s\n", day(st.Start), day(st.End), day(st.VirtualNow))
	fmt.Fprintf(&b, "waves: %d/%d   epochs: %d   attempts: %d\n", st.WavesDone, st.WavesTotal, st.EpochsRun, st.Attempts)
	fmt.Fprintf(&b, "registered sites: %d   detections: %d   integrity alarms: %d   events: %d\n",
		st.RegisteredSites, st.Detections, st.IntegrityAlarms, st.Events)
	if st.Interrupted {
		b.WriteString("interrupted: the run stopped before the configured end date; completed waves remain valid\n")
	}
	if st.Error != "" {
		fmt.Fprintf(&b, "error: %s\n", st.Error)
	}
	return b.String()
}
