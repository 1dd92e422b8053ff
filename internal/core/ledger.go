// Package core implements the Tripwire inference engine — the paper's
// primary contribution. It owns the identity pool and the registration
// ledger (which identity is bound to which site, and how confident we are
// that an account exists), ingests the email provider's sporadic login
// dumps, attributes each successful login back to the site whose database
// must have leaked it, classifies the breach by password strength
// (plaintext vs hashed storage), and enforces the integrity invariants of
// §4.4: control accounts and unused accounts must never trip.
package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"tripwire/internal/crawler"
	"tripwire/internal/identity"
)

// AccountStatus is the registration-confidence bin an account lands in,
// matching the rows of the paper's Table 1.
type AccountStatus int

const (
	// StatusBadHeuristics: the identity was exposed, but the crawler's
	// heuristics signalled failure or could not complete the form
	// ("Bad heuristics/Fields missing"). ~7% of these exist anyway.
	StatusBadHeuristics AccountStatus = iota
	// StatusOKSubmission: submission passed all success heuristics but no
	// email was ever received.
	StatusOKSubmission
	// StatusEmailReceived: some email arrived that was not recognized as a
	// verification message.
	StatusEmailReceived
	// StatusEmailVerified: a recognized verification email arrived — the
	// highest-confidence automated bin.
	StatusEmailVerified
	// StatusManual: registered by hand (the Alexa top-500 pass); assumed
	// valid.
	StatusManual
)

// String names the status with the paper's Table 1 labels.
func (s AccountStatus) String() string {
	switch s {
	case StatusBadHeuristics:
		return "Bad heuristics/Fields missing"
	case StatusOKSubmission:
		return "OK submission"
	case StatusEmailReceived:
		return "Email received"
	case StatusEmailVerified:
		return "Email verified"
	case StatusManual:
		return "Manual"
	default:
		return fmt.Sprintf("AccountStatus(%d)", int(s))
	}
}

// Registration is one identity permanently bound ("burned") to one site.
type Registration struct {
	Identity *identity.Identity
	Domain   string
	Rank     int
	Category string
	When     time.Time
	Code     crawler.Code
	Status   AccountStatus
	Manual   bool
}

// ledgerShards is the burn-map stripe count. Burned-identity lookups are
// the hot ledger operation during parallel crawling (every wave probes
// tripwireAccountExists per candidate); striping by email hash keeps them
// from serializing on one mutex.
const ledgerShards = 64

// regShard is one stripe of the email → registration index.
type regShard struct {
	mu   sync.Mutex
	regs map[string]*Registration
}

// poolSegment is one run of the FIFO identity pool: either a contiguous
// span of not-yet-materialized identity indexes [from, to) — the common
// case after bulk provisioning — or a single explicitly added identity
// (AddIdentity, Return). Spans keep the 10M-account pool O(1) resident;
// identities materialize one at a time as Take reaches them.
type poolSegment struct {
	from, to int64              // index span when id == nil
	id       *identity.Identity // explicit item when id != nil
}

// classPool is one password class's FIFO pool: segments in arrival order,
// consumed from the front.
type classPool struct {
	segs []poolSegment
	head int
}

func (p *classPool) size() int64 {
	n := int64(0)
	for i := p.head; i < len(p.segs); i++ {
		if s := &p.segs[i]; s.id != nil {
			n++
		} else {
			n += s.to - s.from
		}
	}
	return n
}

// compact reclaims the consumed prefix once it dominates the slice.
func (p *classPool) compact() {
	if p.head > 64 && p.head*2 >= len(p.segs) {
		p.segs = append(p.segs[:0], p.segs[p.head:]...)
		p.head = 0
	}
}

// rankSpan is a half-open run [from, to) of identity indexes of one class
// belonging to the monitored-unused universe.
type rankSpan struct{ from, to int64 }

// Ledger is the Tripwire database: the identity pool, burned identities,
// per-site registrations, and the monitored-but-unused account set. All
// methods are safe for concurrent use.
//
// The pool and the unused set are virtual: bulk provisioning records index
// spans (ExtendPool) instead of materialized identities, and membership
// questions resolve arithmetically through the deriver/rank functions the
// pilot injects. Only explicitly added identities (AddIdentity, Return)
// and burned registrations occupy per-account memory.
type Ledger struct {
	mu        sync.Mutex // guards pools, bySite, controls, unused, spans, burned
	pools     [2]classPool
	bySite    map[string][]*Registration
	controls  map[string]*identity.Identity // control accounts, never registered
	unused    map[string]*identity.Identity // explicitly provisioned, not yet used
	spans     [2][]rankSpan                 // unused-universe index spans per class
	spanTotal int64                         // total indexes covered by spans
	burnedIn  int64                         // span members burned so far
	burned    map[int64]struct{}            // burned ranks from spans

	deriver func(rank int64) *identity.Identity
	rankFn  func(email string) (rank int64, ok bool)

	shards [ledgerShards]regShard // email → registration
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	l := &Ledger{
		bySite:   make(map[string][]*Registration),
		controls: make(map[string]*identity.Identity),
		unused:   make(map[string]*identity.Identity),
		burned:   make(map[int64]struct{}),
	}
	for i := range l.shards {
		l.shards[i].regs = make(map[string]*Registration)
	}
	return l
}

// SetDeriver installs the rank → identity materializer (identity.Generator.At)
// used when Take reaches a span segment.
func (l *Ledger) SetDeriver(fn func(rank int64) *identity.Identity) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.deriver = fn
}

// SetRankFn installs the email → rank inverse (identity.Generator.RankOf)
// used to answer unused-set membership for span-covered accounts.
func (l *Ledger) SetRankFn(fn func(email string) (int64, bool)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rankFn = fn
}

func (l *Ledger) shardFor(email string) *regShard {
	h := fnv.New32a()
	h.Write([]byte(email))
	return &l.shards[h.Sum32()%ledgerShards]
}

// AddIdentity places a materialized identity in the available pool. Its
// email account is also tracked as unused until burned.
func (l *Ledger) AddIdentity(id *identity.Identity) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := &l.pools[id.Class]
	p.segs = append(p.segs, poolSegment{id: id})
	l.unused[strings.ToLower(id.Email)] = id
}

// ExtendPool appends the index span [from, from+n) of class to the FIFO
// pool without materializing anything: the span's identities exist only as
// arithmetic until Take reaches them. The span also joins the
// monitored-unused universe, exactly as if each identity had been added
// via AddIdentity.
func (l *Ledger) ExtendPool(class identity.PasswordClass, from, n int64) {
	if n <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	p := &l.pools[class]
	p.segs = append(p.segs, poolSegment{from: from, to: from + n})
	spans := l.spans[class]
	if k := len(spans); k > 0 && spans[k-1].to == from {
		spans[k-1].to = from + n
	} else {
		spans = append(spans, rankSpan{from: from, to: from + n})
	}
	l.spans[class] = spans
	l.spanTotal += n
}

// AddControl registers a control account: provisioned at the provider,
// logged into by Tripwire itself from time to time, never registered at any
// site (paper §4.2).
func (l *Ledger) AddControl(id *identity.Identity) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.controls[strings.ToLower(id.Email)] = id
}

// IsControl reports whether email is a control account.
func (l *Ledger) IsControl(email string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.controls[strings.ToLower(email)]
	return ok
}

// Take removes and returns an identity of the given class from the pool,
// or nil when the pool is dry. Identities are handed out in FIFO order so
// runs are deterministic; a span segment materializes its front rank
// through the injected deriver.
func (l *Ledger) Take(class identity.PasswordClass) *identity.Identity {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := &l.pools[class]
	for p.head < len(p.segs) {
		s := &p.segs[p.head]
		if s.id != nil {
			id := s.id
			p.head++
			p.compact()
			return id
		}
		if s.from < s.to {
			rank := identity.RankFor(class, s.from)
			s.from++
			if s.from == s.to {
				p.head++
				p.compact()
			}
			return l.deriver(rank)
		}
		p.head++
	}
	p.compact()
	return nil
}

// Return puts an identity back in the pool. Only legal if the identity was
// never exposed: "the identity used may be returned to the general pool ...
// only if neither the email address nor password were exposed" (§4.3.1).
// Returning a burned identity panics: that is a protocol violation the
// simulation must never commit.
func (l *Ledger) Return(id *identity.Identity) {
	email := strings.ToLower(id.Email)
	sh := l.shardFor(email)
	sh.mu.Lock()
	_, burnedReg := sh.regs[email]
	sh.mu.Unlock()
	if burnedReg {
		panic("core: returning a burned identity to the pool")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	p := &l.pools[id.Class]
	p.segs = append(p.segs, poolSegment{id: id})
}

// Burn permanently associates id with a site. The first burn wins; burning
// an already-burned identity to a different site panics (one-to-one mapping
// is the system's core invariant, §4.1).
func (l *Ledger) Burn(id *identity.Identity, domain string, rank int, category string, when time.Time, code crawler.Code, manual bool) *Registration {
	email := strings.ToLower(id.Email)
	sh := l.shardFor(email)
	sh.mu.Lock()
	if prev, ok := sh.regs[email]; ok {
		prevDomain := prev.Domain
		sh.mu.Unlock()
		if prevDomain != domain {
			panic(fmt.Sprintf("core: identity %s already burned to %s, cannot burn to %s", email, prevDomain, domain))
		}
		return prev
	}
	reg := &Registration{
		Identity: id,
		Domain:   domain,
		Rank:     rank,
		Category: category,
		When:     when,
		Code:     code,
		Manual:   manual,
		Status:   initialStatus(code, manual),
	}
	sh.regs[email] = reg
	sh.mu.Unlock()

	l.mu.Lock()
	l.bySite[domain] = append(l.bySite[domain], reg)
	if _, ok := l.unused[email]; ok {
		delete(l.unused, email)
	} else if l.rankFn != nil {
		if r, ok := l.rankFn(email); ok && l.inSpansLocked(r) {
			if _, dup := l.burned[r]; !dup {
				l.burned[r] = struct{}{}
				l.burnedIn++
			}
		}
	}
	l.mu.Unlock()
	return reg
}

// inSpansLocked reports whether rank belongs to the span-provisioned
// unused universe. Caller holds l.mu.
func (l *Ledger) inSpansLocked(rank int64) bool {
	class := identity.ClassOf(rank)
	idx := identity.IndexOf(rank)
	spans := l.spans[class]
	i := sort.Search(len(spans), func(i int) bool { return spans[i].to > idx })
	return i < len(spans) && spans[i].from <= idx
}

func initialStatus(code crawler.Code, manual bool) AccountStatus {
	switch {
	case manual:
		return StatusManual
	case code == crawler.CodeOKSubmission:
		return StatusOKSubmission
	default:
		return StatusBadHeuristics
	}
}

// NoteEmail upgrades a registration's status on mail receipt: verification
// mail lifts it to EmailVerified; any other mail to at least EmailReceived.
// It returns the registration, or nil if the recipient is not burned.
func (l *Ledger) NoteEmail(rcpt string, isVerification bool) *Registration {
	email := strings.ToLower(rcpt)
	sh := l.shardFor(email)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	reg, ok := sh.regs[email]
	if !ok {
		return nil
	}
	if reg.Status == StatusManual {
		return reg
	}
	if isVerification {
		reg.Status = StatusEmailVerified
	} else if reg.Status < StatusEmailReceived {
		reg.Status = StatusEmailReceived
	}
	return reg
}

// Lookup returns the registration bound to email.
func (l *Ledger) Lookup(email string) (*Registration, bool) {
	key := strings.ToLower(email)
	sh := l.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	reg, ok := sh.regs[key]
	return reg, ok
}

// SiteRegistrations returns the registrations at domain.
func (l *Ledger) SiteRegistrations(domain string) []*Registration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Registration, len(l.bySite[domain]))
	copy(out, l.bySite[domain])
	return out
}

// Registrations returns every burned registration.
func (l *Ledger) Registrations() []*Registration {
	var out []*Registration
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for _, reg := range sh.regs {
			out = append(out, reg)
		}
		sh.mu.Unlock()
	}
	return out
}

// Sites returns the set of domains with at least one registration.
func (l *Ledger) Sites() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.bySite))
	for d := range l.bySite {
		out = append(out, d)
	}
	return out
}

// SiteCount returns how many domains hold at least one registration,
// without materializing the domain list — the progress-mirror read runs
// once per epoch.
func (l *Ledger) SiteCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.bySite)
}

// PoolSize returns the number of identities currently available.
func (l *Ledger) PoolSize() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.pools[identity.Hard].size() + l.pools[identity.Easy].size())
}

// UnusedCount returns how many provisioned accounts were never used at any
// site — the honeypot set guarding the provider's and Tripwire's own
// integrity (paper §4.4: "more than 100,000 valid email addresses ...
// monitored for logins, but ... not registered with sites"). Span-covered
// members are counted arithmetically.
func (l *Ledger) UnusedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.unused) + int(l.spanTotal-l.burnedIn)
}

// IsUnused reports whether email belongs to the unused monitored set.
func (l *Ledger) IsUnused(email string) bool {
	key := strings.ToLower(email)
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.unused[key]; ok {
		return true
	}
	if l.rankFn == nil {
		return false
	}
	rank, ok := l.rankFn(key)
	if !ok || !l.inSpansLocked(rank) {
		return false
	}
	_, wasBurned := l.burned[rank]
	return !wasBurned
}
