package emailprovider

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"tripwire/internal/loginrec"
	"tripwire/internal/snapshot"
)

// The login log's retention tiers. The resident tier is the loginLog;
// when it exceeds LogResidentBudget logins, the oldest prefix is written
// to a cold segment file in LogSpillDir using the snapshot container
// (one "logins" section, CRC-protected) and dropped from the resident
// log, releasing the chunks it emptied. A segment holds the detached
// records themselves: their account ids and side-table indexes resolve
// through the log's name and address tables, which only grow and stay
// resident, so a segment means something only to the provider that wrote
// it. Cold segments are immutable, strictly older than every resident
// login, and in time order — so DumpSince binary-searches each
// overlapping segment exactly the way it searches the resident log, and
// retention expiry unlinks whole segment files without touching their
// contents.

// segmentSection names the single section inside a cold segment file.
const segmentSection = "logins"

// coldSegment is the in-memory index entry for one spilled segment file.
type coldSegment struct {
	path     string
	min, max time.Time // event-time span, inclusive
	count    int
	// names and addrs are the sizes of the log's name and address tables
	// when the segment was written: every record it holds indexes below
	// them.
	names, addrs int
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
	payload, seg := p.log.takeSpill(p.logResidentBudget)
	if seg.count == 0 {
		return
	}
	f := snapshot.New()
	f.Add(segmentSection, payload)

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
	seg.path = path
	p.spill.segments = append(p.spill.segments, seg)
}

// readSegment loads and decodes one cold segment.
func (p *Provider) readSegment(seg coldSegment) ([]loginrec.Record, error) {
	f, err := snapshot.ReadFile(seg.path)
	if err != nil {
		return nil, err
	}
	data, ok := f.Section(segmentSection)
	if !ok {
		return nil, fmt.Errorf("%s: %w: missing %q section", seg.path, snapshot.ErrCorrupt, segmentSection)
	}
	recs, err := loginrec.DecodeSegment(snapshot.NewDecoder(data), seg.names, seg.addrs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", seg.path, err)
	}
	return recs, nil
}

// spilledSince collects the cold records with Time in (since, now] and not
// before cutoff, oldest first. Each overlapping segment is loaded and
// binary-searched with the same predicates the resident log uses;
// non-overlapping segments are skipped on their index entry alone, without
// touching the file. Records before the last purge's cutoff are masked
// even where their straddling segment file was kept whole, as the resident
// log, which drops them, would have.
func (p *Provider) spilledSince(since, cutoff, now time.Time) []loginrec.Record {
	p.spill.mu.Lock()
	segments := slices.Clone(p.spill.segments)
	if p.spill.purgedBefore.After(cutoff) {
		cutoff = p.spill.purgedBefore
	}
	p.spill.mu.Unlock()

	var out []loginrec.Record
	for _, seg := range segments {
		if !seg.max.After(since) || seg.max.Before(cutoff) || seg.min.After(now) {
			continue
		}
		recs, err := p.readSegment(seg)
		if err != nil {
			p.noteSpillErr(err)
			continue
		}
		lo, hi := timeWindow(len(recs), func(i int) *loginrec.Record { return &recs[i] }, since, cutoff, now)
		out = append(out, recs[lo:hi]...)
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
