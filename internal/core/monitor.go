package core

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"tripwire/internal/emailprovider"
	"tripwire/internal/identity"
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
	seenControls     map[string]int  // account -> observed logins

	// detections indexed by site domain, in first-detection order.
	detections map[string]*Detection
	order      []string

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
	// Logins per account email: every login the monitor attributed to the
	// site, each held here and nowhere else in the monitor.
	Logins map[string][]emailprovider.LoginEvent
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
		seenControls:     make(map[string]int),
		detections:       make(map[string]*Detection),
	}
}

// ExpectControlLogin registers an upcoming legitimate control-account login.
func (m *Monitor) ExpectControlLogin(account string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expectedControls[strings.ToLower(account)] = true
}

// Ingest processes a provider dump: every event is attributed, alarmed, or
// recognized as a control login. It returns the site domains whose
// compromise was *newly* detected by this dump.
func (m *Monitor) Ingest(events []emailprovider.LoginEvent) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.Metrics != nil {
		m.Metrics.dumpsIngested.Inc()
		m.Metrics.eventsIngested.Add(uint64(len(events)))
	}
	var newly []string
	for _, ev := range events {
		if ev.Time.After(m.lastDump) {
			m.lastDump = ev.Time
		}
		account := strings.ToLower(ev.Account)
		if m.ledger.IsControl(account) {
			m.seenControls[account]++
			if m.Metrics != nil {
				m.Metrics.controlLogins.Inc()
			}
			continue
		}
		reg, ok := m.ledger.Lookup(account)
		if !ok {
			reason := "login to account never registered at any site"
			if m.ledger.IsUnused(account) {
				reason = "login to unused honeypot account (provider or Tripwire database compromise?)"
			}
			m.alarms = append(m.alarms, IntegrityAlarm{Event: ev, Reason: reason})
			if m.Metrics != nil {
				m.Metrics.integrityAlarms.Inc()
			}
			continue
		}
		if m.Metrics != nil {
			m.Metrics.attributedLogins.Inc()
		}
		det, seen := m.detections[reg.Domain]
		if !seen {
			det = &Detection{
				Domain:    reg.Domain,
				Rank:      reg.Rank,
				Category:  reg.Category,
				FirstSeen: ev.Time,
				LastSeen:  ev.Time,
				Logins:    make(map[string][]emailprovider.LoginEvent),
			}
			m.detections[reg.Domain] = det
			m.order = append(m.order, reg.Domain)
			newly = append(newly, reg.Domain)
			if m.Metrics != nil {
				m.Metrics.detections.Inc()
			}
		}
		if ev.Time.Before(det.FirstSeen) {
			det.FirstSeen = ev.Time
		}
		if ev.Time.After(det.LastSeen) {
			det.LastSeen = ev.Time
		}
		det.Logins[account] = append(det.Logins[account], ev)
		if reg.Identity.Class == identity.Hard {
			det.HardAccessed = true
		}
	}
	// Refresh the n-of-m counters for every touched site.
	for _, det := range m.detections {
		det.AccountsRegistered = len(m.ledger.SiteRegistrations(det.Domain))
		det.AccountsAccessed = len(det.Logins)
	}
	return newly
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
	n := 0
	for _, c := range m.seenControls {
		n += c
	}
	return n
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
