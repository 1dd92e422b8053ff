package sim

import (
	"time"

	"tripwire/internal/core"
)

// EventKind discriminates pilot progress events.
type EventKind int

const (
	// EventWaveDone fires after a crawl wave (both phases) completes.
	EventWaveDone EventKind = iota
	// EventDetection fires when a provider dump newly implicates a site.
	EventDetection
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventWaveDone:
		return "wave-done"
	case EventDetection:
		return "detection"
	default:
		return "event(?)"
	}
}

// Event is one pilot progress notification.
//
// Ordering guarantee: events are emitted synchronously on the scheduler
// goroutine, so they arrive in virtual-time order; detections within one
// dump arrive in the monitor's first-seen order. A given run emits the
// same event sequence regardless of Workers.
type Event struct {
	Kind EventKind
	// At is the virtual time the event fired.
	At time.Time

	// Wave fields (EventWaveDone).
	Batch            string
	FromRank, ToRank int
	Attempts         int // registration attempts recorded by this wave
	Manual           bool

	// Detection carries the monitor's evidence (EventDetection): a
	// snapshot taken when the event fired, safe to retain and read from
	// any goroutine — later dumps mutate the monitor's copy, not this one.
	Detection *core.Detection
}

// emit delivers ev to the OnEvent hook, if any.
func (p *Pilot) emit(ev Event) {
	if p.OnEvent != nil {
		p.OnEvent(ev)
	}
}
