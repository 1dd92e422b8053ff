package core

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"tripwire/internal/emailprovider"
	"tripwire/internal/identity"
	"tripwire/internal/loginrec"
	"tripwire/internal/snapshot"
)

// IntegrityAlarm is raised when a login trips an account that was never
// registered anywhere. Under the paper's threat analysis (§4.4) this would
// indicate compromise of the email provider or of Tripwire's own database —
// it must never fire in a healthy deployment.
type IntegrityAlarm struct {
	Event  emailprovider.LoginEvent
	Reason string
}

// Error renders the alarm.
func (a IntegrityAlarm) Error() string {
	return fmt.Sprintf("core: integrity alarm: %s (account %s at %s from %s)",
		a.Reason, a.Event.Account, a.Event.Time.Format(time.RFC3339), a.Event.IP)
}

// ExpectedControlLogin describes a legitimate login Tripwire itself makes
// to a control account, so the monitor can both verify the provider reports
// it and avoid flagging it.
type ExpectedControlLogin struct {
	Account string
	From    netip.Addr
}

// Monitor correlates provider login dumps with the registration ledger and
// maintains per-site detection state.
type Monitor struct {
	mu     sync.Mutex
	ledger *Ledger

	lastDump time.Time
	alarms   []IntegrityAlarm

	expectedControls map[string]bool // account -> expected
	// controlLogins holds the control-account logins the provider
	// reported, filed as a detection files its attributed logins. Only
	// their counts are read: ControlLoginsSeen and the checkpoint section.
	controlLogins loginStore

	// detections indexed by site domain, in first-detection order.
	detections map[string]*Detection
	order      []string

	// The resolution cache (see Ingest). byID holds, per account id of
	// the login log source, the account a login resolved to, while that is
	// exact: until a dump from another source, or a growing control set
	// (controls). Alarms are never cached.
	source   any
	controls int
	byID     []*account

	// Metrics, when non-nil, receives per-dump observations. Recording is
	// atomic-only and never influences attribution.
	Metrics *MonitorMetrics
}

// Detection is the monitor's evidence of compromise at one site.
type Detection struct {
	Domain    string
	Rank      int
	Category  string
	FirstSeen time.Time
	LastSeen  time.Time
	// loginStore holds every login the monitor attributed to the site.
	loginStore
	// HardAccessed is true once any hard-password account at the site is
	// accessed, indicating plaintext or reversible password storage.
	HardAccessed bool
	// AccountsRegistered/AccountsAccessed give the "n of m" of Table 2.
	AccountsRegistered int
	AccountsAccessed   int
}

// NewMonitor returns a monitor over ledger starting its dump cursor at
// start.
func NewMonitor(ledger *Ledger, start time.Time) *Monitor {
	return &Monitor{
		ledger:           ledger,
		lastDump:         start,
		expectedControls: make(map[string]bool),
		detections:       make(map[string]*Detection),
	}
}

// ExpectControlLogin registers an upcoming legitimate control-account login.
func (m *Monitor) ExpectControlLogin(account string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expectedControls[strings.ToLower(account)] = true
}

// loginStore files logins by lowercase account address, each held here
// and nowhere else in the monitor as a 16-byte record with no pointers: an
// account's record lists its logins, each login's tag indexes methods, and
// an address that is not plain IPv4 is kept in addrs. Logins decodes them.
type loginStore struct {
	logins  map[string]*account
	methods []string
	addrs   loginrec.Addrs
}

// account is one account's record in a loginStore: its detection's, or
// the monitor's store of control logins.
type account struct {
	det    *Detection // the registration's detection; nil for a control
	logins []loginrec.Login
}

// Ingest processes a provider dump: every event is attributed, alarmed, or
// recognized as a control login. It returns the site domains whose
// compromise was *newly* detected by this dump.
//
// Each control or registered account is resolved against the ledger at
// most once per dump, by its account id (see resolve). After that a login
// costs no lock, no lowercasing, no string-keyed map lookup and no
// allocation beyond its account's growing list. Resolutions carry over to
// later dumps of one source, which is exact: a control stays a control, a
// registration stays bound to its site, and only a control added since can
// outrank a registration, so a growing control set drops the cache. Alarms
// are never cached: each alarm login resolves against the ledger as it
// stands.
func (m *Monitor) Ingest(dump emailprovider.Dump) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	src, controls := dump.Source(), m.ledger.controlCount()
	if src != m.source || controls != m.controls {
		clear(m.byID)
		m.source, m.controls = src, controls
	}
	before := len(m.order)
	var nControl, nAttributed, nAlarm uint64
	dump.Each(func(ev emailprovider.LoginEvent, id uint32) {
		if ev.Time.After(m.lastDump) {
			m.lastDump = ev.Time
		}
		var a *account
		if int(id) < len(m.byID) {
			a = m.byID[id]
		}
		var reason string
		if a == nil {
			a, reason = m.resolve(ev.Account, id, ev.Time)
		}
		switch {
		case a == nil:
			m.alarms = append(m.alarms, IntegrityAlarm{Event: ev, Reason: reason})
			nAlarm++
		case a.det == nil:
			m.controlLogins.add(a, &ev)
			nControl++
		default:
			det := a.det
			if ev.Time.Before(det.FirstSeen) {
				det.FirstSeen = ev.Time
			}
			if ev.Time.After(det.LastSeen) {
				det.LastSeen = ev.Time
			}
			det.add(a, &ev)
			nAttributed++
		}
	})
	if m.Metrics != nil {
		m.Metrics.dumpsIngested.Inc()
		m.Metrics.eventsIngested.Add(uint64(dump.Len()))
		m.Metrics.controlLogins.Add(nControl)
		m.Metrics.attributedLogins.Add(nAttributed)
		m.Metrics.integrityAlarms.Add(nAlarm)
		m.Metrics.detections.Add(uint64(len(m.order) - before))
	}
	// Refresh the n-of-m counters of every detection, not only those this
	// dump touched: a registration burned at a detected site since the last
	// dump counts even if none of the site's accounts logged in.
	for _, det := range m.detections {
		det.AccountsRegistered = m.ledger.siteRegistrationCount(det.Domain)
		det.AccountsAccessed = len(det.logins)
	}
	if len(m.order) == before {
		return nil
	}
	return slices.Clone(m.order[before:])
}

// resolve returns what the account name (as the dump spells it, with
// account id id) resolves to, in the order the paper's integrity checks
// apply: a control account; else a registration, whose detection and
// account record are created here, at the first login the monitor
// attributes to them (t); else nil and the alarm's reason. It caches a
// positive result under the id.
func (m *Monitor) resolve(name string, id uint32, t time.Time) (*account, string) {
	a, reason := m.lookup(name, t)
	if a == nil {
		return nil, reason
	}
	if n, want := len(m.byID), int(id)+1; want > n {
		m.byID = slices.Grow(m.byID, want-n)[:want]
		clear(m.byID[n:])
	}
	m.byID[id] = a
	return a, ""
}

// lookup resolves name against the ledger for resolve.
func (m *Monitor) lookup(name string, t time.Time) (*account, string) {
	email := strings.ToLower(name)
	if m.ledger.IsControl(email) {
		return m.controlLogins.account(email, nil), ""
	}
	reg, ok := m.ledger.Lookup(email)
	if !ok {
		if m.ledger.IsUnused(email) {
			return nil, "login to unused honeypot account (provider or Tripwire database compromise?)"
		}
		return nil, "login to account never registered at any site"
	}
	det := m.detections[reg.Domain]
	if det == nil {
		det = &Detection{
			Domain:    reg.Domain,
			Rank:      reg.Rank,
			Category:  reg.Category,
			FirstSeen: t,
			LastSeen:  t,
		}
		m.detections[reg.Domain] = det
		m.order = append(m.order, reg.Domain)
	}
	if reg.Identity.Class == identity.Hard {
		det.HardAccessed = true
	}
	return det.account(email, det), ""
}

// account returns email's record, made for det if s has none.
func (s *loginStore) account(email string, det *Detection) *account {
	a := s.logins[email]
	if a == nil {
		if s.logins == nil {
			s.logins = make(map[string]*account)
		}
		a = &account{det: det}
		s.logins[email] = a
	}
	return a
}

// add files a login to a, one of s's accounts.
func (s *loginStore) add(a *account, ev *emailprovider.LoginEvent) {
	tag := slices.Index(s.methods, ev.Method)
	if tag < 0 {
		if len(s.methods) > math.MaxUint8 {
			panic("core: more than 256 access methods")
		}
		tag = len(s.methods)
		s.methods = append(s.methods, ev.Method)
	}
	a.logins = append(a.logins, s.addrs.Pack(ev.Time, ev.IP, uint8(tag)))
}

// Accounts returns the accounts with filed logins, sorted.
func (s *loginStore) Accounts() []string { return snapshot.SortedKeys(s.logins) }

// Logins returns the logins filed for account, in the order they were
// ingested.
func (s *loginStore) Logins(account string) []emailprovider.LoginEvent {
	return s.appendLogins(nil, account)
}

// appendLogins appends account's filed logins to dst.
func (s *loginStore) appendLogins(dst []emailprovider.LoginEvent, account string) []emailprovider.LoginEvent {
	a := s.logins[account]
	if a == nil {
		return dst
	}
	addrs := s.addrs.List()
	for i := range a.logins {
		l := &a.logins[i]
		dst = append(dst, emailprovider.LoginEvent{Account: account, Time: l.Time(), IP: l.IP(addrs), Method: s.methods[l.Tag]})
	}
	return dst
}

// LoginCount returns how many logins were filed.
func (s *loginStore) LoginCount() int {
	n := 0
	for _, a := range s.logins {
		n += len(a.logins)
	}
	return n
}

// Clone returns a deep copy of d that later ingests do not change.
func (d *Detection) Clone() *Detection {
	cp := *d
	cp.logins = make(map[string]*account, len(d.logins))
	for email, a := range d.logins {
		cp.logins[email] = &account{det: &cp, logins: slices.Clone(a.logins)}
	}
	cp.methods = slices.Clip(d.methods)
	cp.addrs = d.addrs.Clone()
	return &cp
}

// Detections returns all detections in first-seen order.
func (m *Monitor) Detections() []*Detection {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Detection, 0, len(m.order))
	for _, d := range m.order {
		out = append(out, m.detections[d])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].FirstSeen.Before(out[j].FirstSeen) })
	return out
}

// Detection returns the detection for domain, if any.
func (m *Monitor) Detection(domain string) (*Detection, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.detections[domain]
	return d, ok
}

// Alarms returns integrity alarms raised so far. A healthy deployment
// returns none.
func (m *Monitor) Alarms() []IntegrityAlarm {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]IntegrityAlarm, len(m.alarms))
	copy(out, m.alarms)
	return out
}

// AlarmCount returns how many integrity alarms have been raised, without
// copying them — the progress-mirror read runs once per epoch.
func (m *Monitor) AlarmCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.alarms)
}

// ControlLoginsSeen returns the number of control-account logins the
// provider reported; §4.2 requires every control login to be "accurately
// reported by our provider".
func (m *Monitor) ControlLoginsSeen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.controlLogins.LoginCount()
}

// BreachClass summarizes what a detection implies about the site's password
// storage (paper §6.1.2).
type BreachClass int

const (
	// BreachHashedOnly: only easy-password accounts were accessed — the
	// site appears to hash passwords well enough to protect strong ones.
	BreachHashedOnly BreachClass = iota
	// BreachPlaintext: hard-password accounts were accessed — plaintext
	// storage, a trivially reversed hash, or capture before hashing.
	BreachPlaintext
	// BreachIndeterminate: no hard account was registered at the site, so
	// the storage question cannot be answered (site P in the paper).
	BreachIndeterminate
)

// String names the class.
func (b BreachClass) String() string {
	switch b {
	case BreachHashedOnly:
		return "hashed (easy passwords only)"
	case BreachPlaintext:
		return "plaintext-equivalent (hard password accessed)"
	case BreachIndeterminate:
		return "indeterminate (no hard account registered)"
	default:
		return fmt.Sprintf("BreachClass(%d)", int(b))
	}
}

// Classify returns the breach class for det given the site's registrations.
func (m *Monitor) Classify(det *Detection) BreachClass {
	if det.HardAccessed {
		return BreachPlaintext
	}
	for _, reg := range m.ledger.SiteRegistrations(det.Domain) {
		if reg.Identity.Class == identity.Hard {
			return BreachHashedOnly
		}
	}
	return BreachIndeterminate
}
