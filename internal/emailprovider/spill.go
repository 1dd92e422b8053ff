package emailprovider

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"tripwire/internal/snapshot"
)

// The login log's retention tiers. The resident tier is the loginLog;
// when it exceeds LogResidentBudget events, the oldest prefix is written
// to a cold segment file in LogSpillDir using the snapshot container
// (one "logins" section, CRC-protected) and dropped from the resident
// log, releasing the chunks it emptied. Cold segments are immutable,
// strictly older than every resident event, and internally time-sorted —
// so DumpSince binary-searches each overlapping segment exactly the way
// it searches the resident log, and retention
// expiry unlinks whole segment files without touching their contents.

// segmentSection names the single section inside a cold segment file.
const segmentSection = "logins"

// coldSegment is the in-memory index entry for one spilled segment file.
type coldSegment struct {
	path     string
	min, max time.Time // event-time span, inclusive
	count    int
}

// spillState is the provider's cold-tier bookkeeping, separate from the
// resident log's lock: segment reads do file IO and must not block appends.
type spillState struct {
	mu       sync.Mutex
	segments []coldSegment // oldest first
	next     int           // next segment file number
	err      error         // first spill IO failure, sticky
	// purgedBefore is the high-water retention cutoff. A purge drops whole
	// segments; a segment straddling the cutoff stays on disk, so its
	// expired prefix must be masked at read time — exactly as the resident
	// log, which physically drops those events, would have.
	purgedBefore time.Time
}

// SpillLoginLog enables the cold tier: when the resident login log
// exceeds budget events, the oldest prefix spills to a segment file in
// dir. A budget ≤ 0 or empty dir disables spilling.
func (p *Provider) SpillLoginLog(dir string, budget int) {
	p.spillDir = dir
	p.logResidentBudget = budget
}

// ResidentLogSize returns how many login events are held in memory; the
// heap-envelope benchmark asserts this stays inside the budget while
// AllLogins still sees everything.
func (p *Provider) ResidentLogSize() int { return p.log.size() }

// SpilledSegments returns how many cold segment files exist.
func (p *Provider) SpilledSegments() int {
	p.spill.mu.Lock()
	defer p.spill.mu.Unlock()
	return len(p.spill.segments)
}

// SpillErr returns the first cold-tier IO failure, if any. Dumps degrade
// to the resident tier after a failure, so callers that need the full
// log (checkpointing, final accounting) must check it.
func (p *Provider) SpillErr() error {
	p.spill.mu.Lock()
	defer p.spill.mu.Unlock()
	return p.spill.err
}

// maybeSpill moves the oldest resident events to a new cold segment when
// the resident log exceeds its budget. Called after appends (outside parallel
// segments) and at EndSegment, so spill timing is deterministic whenever
// append order is.
func (p *Provider) maybeSpill() {
	if p.spillDir == "" || p.logResidentBudget <= 0 {
		return
	}
	evs := p.log.takeSpill(p.logResidentBudget)
	if len(evs) == 0 {
		return
	}
	e := snapshot.NewEncoder()
	EncodeLoginEvents(e, evs)
	f := snapshot.New()
	f.Add(segmentSection, e.Bytes())

	p.spill.mu.Lock()
	defer p.spill.mu.Unlock()
	path := filepath.Join(p.spillDir, fmt.Sprintf("logseg-%06d.twsnap", p.spill.next))
	if err := snapshot.WriteFile(path, f); err != nil {
		// The detached events would be lost; surface the failure and stop
		// trusting the cold tier.
		if p.spill.err == nil {
			p.spill.err = err
		}
		return
	}
	p.spill.next++
	p.spill.segments = append(p.spill.segments, coldSegment{
		path:  path,
		min:   evs[0].Time,
		max:   evs[len(evs)-1].Time,
		count: len(evs),
	})
}

// readSegment loads and decodes one cold segment.
func (p *Provider) readSegment(seg coldSegment) ([]LoginEvent, error) {
	f, err := snapshot.ReadFile(seg.path)
	if err != nil {
		return nil, err
	}
	data, ok := f.Section(segmentSection)
	if !ok {
		return nil, fmt.Errorf("%s: %w: missing %q section", seg.path, snapshot.ErrCorrupt, segmentSection)
	}
	evs, err := DecodeLoginEvents(snapshot.NewDecoder(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", seg.path, err)
	}
	return evs, nil
}

// spilledSince collects the events from cold segments with Time in
// (since, now] and not before cutoff, oldest first. Each overlapping
// segment is loaded and binary-searched with the same predicates the
// resident log uses; non-overlapping segments are skipped on their index
// entry alone, without touching the file.
func (p *Provider) spilledSince(since, cutoff, now time.Time) []LoginEvent {
	p.spill.mu.Lock()
	segments := make([]coldSegment, len(p.spill.segments))
	copy(segments, p.spill.segments)
	p.spill.mu.Unlock()

	var out []LoginEvent
	for _, seg := range segments {
		if !seg.max.After(since) || seg.max.Before(cutoff) || seg.min.After(now) {
			continue
		}
		evs, err := p.readSegment(seg)
		if err != nil {
			p.noteSpillErr(err)
			continue
		}
		lo := sort.Search(len(evs), func(i int) bool {
			t := evs[i].Time
			return t.After(since) && !t.Before(cutoff)
		})
		hi := lo + sort.Search(len(evs)-lo, func(i int) bool {
			return evs[lo+i].Time.After(now)
		})
		out = append(out, evs[lo:hi]...)
	}
	return out
}

// allSpilled returns every cold event that survived retention, oldest
// first. Events before the last purge's cutoff are masked even when their
// straddling segment file was kept whole.
func (p *Provider) allSpilled() []LoginEvent {
	p.spill.mu.Lock()
	segments := make([]coldSegment, len(p.spill.segments))
	copy(segments, p.spill.segments)
	pb := p.spill.purgedBefore
	p.spill.mu.Unlock()

	var out []LoginEvent
	for _, seg := range segments {
		if seg.max.Before(pb) {
			continue
		}
		evs, err := p.readSegment(seg)
		if err != nil {
			p.noteSpillErr(err)
			continue
		}
		lo := sort.Search(len(evs), func(i int) bool {
			return !evs[i].Time.Before(pb)
		})
		out = append(out, evs[lo:]...)
	}
	return out
}

// purgeSpilled unlinks segments that lie wholly before cutoff and
// returns how many events they held. Segments straddling the cutoff stay;
// their expired prefix is filtered at read time by the same cutoff
// predicate every dump applies.
func (p *Provider) purgeSpilled(cutoff time.Time) int {
	p.spill.mu.Lock()
	defer p.spill.mu.Unlock()
	dropped := 0
	i := 0
	for ; i < len(p.spill.segments); i++ {
		seg := p.spill.segments[i]
		if !seg.max.Before(cutoff) {
			break
		}
		dropped += seg.count
		os.Remove(seg.path)
	}
	p.spill.segments = p.spill.segments[i:]
	if cutoff.After(p.spill.purgedBefore) {
		p.spill.purgedBefore = cutoff
	}
	return dropped
}

func (p *Provider) noteSpillErr(err error) {
	p.spill.mu.Lock()
	if p.spill.err == nil {
		p.spill.err = err
	}
	p.spill.mu.Unlock()
}
