// Package emailprovider simulates Tripwire's partner email provider (paper
// §4.2): it creates honey accounts (rejecting collisions and policy
// violations), forwards all delivered mail to the Tripwire mail server,
// records every successful login with timestamp, remote IP, and method,
// defends against brute-forcing, and freezes or deactivates abused accounts
// — each behaviour the paper reports observing.
//
// The account table is built to hold a 10M-account honey population in a
// bounded heap: storage is struct-of-arrays per shard (flat columns instead
// of per-account heap objects, times packed as int64 nanos, the domain
// interned once), and accounts covered by an AccountDeriver exist only
// implicitly — a pristine account is a pure function of its address, so it
// is materialized into a shard row the first time something actually
// mutates it (a delivery, a failed login, a state change). Reads and
// correct-password logins on pristine accounts never allocate a row.
package emailprovider

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tripwire/internal/imap"
)

// State is an account's lifecycle state.
type State int

const (
	// Active accounts accept logins.
	Active State = iota
	// Frozen accounts were locked by the provider for suspicious activity;
	// logins fail. (Paper Table 3's "Frozen" column.)
	Frozen
	// Deactivated accounts were shut down for sending spam.
	Deactivated
	// ResetForced accounts had a provider-forced password reset after
	// recognized compromise; the old password no longer works.
	ResetForced
)

// String names the state.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Frozen:
		return "frozen"
	case Deactivated:
		return "deactivated"
	case ResetForced:
		return "reset-forced"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// LoginEvent is one successful login, as included in the provider's
// sporadic dumps to Tripwire: "timestamp, remote IP, and method ... but does
// not disclose failed attempts" (paper §4.2).
type LoginEvent struct {
	Account string // email address
	Time    time.Time
	IP      netip.Addr
	Method  string // "IMAP", "POP3", "WEB"
}

// Forwarder receives mail forwarded off honey accounts toward Tripwire's
// own mail server.
type Forwarder func(from, to, subject, body string) error

// Errors returned by account creation.
var (
	// ErrCollision means an account with that address already exists.
	ErrCollision = errors.New("emailprovider: address already taken")
	// ErrNamingPolicy means the local part violates the provider's rules.
	ErrNamingPolicy = errors.New("emailprovider: address violates naming policy")
)

// DerivedAccount is the pristine form of an implicitly provisioned
// account: what its row would hold if it were materialized untouched.
type DerivedAccount struct {
	Name      string
	Password  string
	ForwardTo string
}

// AccountDeriver makes a honey-account population implicit: DeriveAccount
// reports whether an address is covered and, if so, its pristine account,
// as a pure function of the address. DerivedCount is how many addresses
// are covered in total. Implementations must be safe for concurrent use
// and deterministic — two calls for the same address must agree, and
// coverage may only grow.
type AccountDeriver interface {
	DeriveAccount(email string) (DerivedAccount, bool)
	DerivedCount() int64
}

// accountShards fixes the provider's lock striping width. Per-account
// invariants (password, state, brute-force counters, inbox) only ever span
// one account, so any address-stable partition preserves them; 32 shards
// keep unrelated accounts off each other's locks.
const accountShards = 32

// accountShard guards one stripe of the account table: a local-part index
// into parallel flat columns. Rows are never deleted, so a slot is a
// stable handle.
type accountShard struct {
	mu    sync.Mutex
	index map[string]int32 // local-part → slot

	locals       []string
	names        []string
	passwords    []string
	forwards     []string
	states       []uint8
	failedSince  []int64 // UnixNano; 0 = never
	throttledTil []int64 // UnixNano; 0 = never
	failedCount  []int32
	inboxes      [][]imap.Message
}

// insertLocked appends a row and returns its slot. Caller holds mu.
func (sh *accountShard) insertLocked(local, name, password, forwardTo string) int32 {
	slot := int32(len(sh.locals))
	sh.index[local] = slot
	sh.locals = append(sh.locals, local)
	sh.names = append(sh.names, name)
	sh.passwords = append(sh.passwords, password)
	sh.forwards = append(sh.forwards, forwardTo)
	sh.states = append(sh.states, uint8(Active))
	sh.failedSince = append(sh.failedSince, 0)
	sh.throttledTil = append(sh.throttledTil, 0)
	sh.failedCount = append(sh.failedCount, 0)
	sh.inboxes = append(sh.inboxes, nil)
	return slot
}

// Provider is the simulated email service.
type Provider struct {
	domain string

	// shards stripes the account table by address hash; log is the
	// time-indexed successful-login record dumps read from.
	shards [accountShards]accountShard
	log    loginLog
	// deriver, when set, makes covered accounts implicit (see
	// AccountDeriver); explicit counts accounts created outside its
	// coverage, so NumAccounts is a lock-free sum.
	deriver  AccountDeriver
	explicit atomic.Int64
	// Cold-tier spill configuration and bookkeeping (see spill.go). Set
	// via SpillLoginLog before the first login; zero values disable the
	// tier and keep the whole log resident.
	spillDir          string
	logResidentBudget int
	spill             spillState
	// reserved local parts per the provider's naming policy. Read-only
	// after New, so lookups need no lock.
	reserved map[string]bool

	// Forward delivers forwarded copies; nil disables forwarding.
	Forward Forwarder
	// Now supplies virtual time.
	Now func() time.Time

	// Brute-force defence: more than BruteForceMax failures within
	// BruteForceWindow throttles the account for ThrottlePeriod.
	BruteForceMax    int
	BruteForceWindow time.Duration
	ThrottlePeriod   time.Duration

	// Retention bounds how far back login events are kept; dumps cannot
	// see past it. The paper lost Spring 2015 data to exactly this limit.
	Retention time.Duration

	// Metrics, when non-nil, receives login and lifecycle observations.
	// Recording is atomic-only and never changes auth decisions.
	Metrics *Metrics
}

// New returns a provider serving addresses @domain.
func New(domain string) *Provider {
	p := &Provider{
		domain:           domain,
		reserved:         map[string]bool{"admin": true, "postmaster": true, "abuse": true, "support": true, "root": true, "noreply": true},
		Now:              time.Now,
		BruteForceMax:    10,
		BruteForceWindow: time.Hour,
		ThrottlePeriod:   24 * time.Hour,
		Retention:        365 * 24 * time.Hour,
	}
	for i := range p.shards {
		p.shards[i].index = make(map[string]int32)
	}
	return p
}

// SetDeriver installs the implicit-account source. Must be called before
// the provider sees traffic; coverage growing later (the deriver extending
// its allocated range) is fine.
func (p *Provider) SetDeriver(d AccountDeriver) { p.deriver = d }

// shardFor maps a lowercased local-part to its account shard (FNV-1a over
// the full address, so the stripe layout is stable against the storage
// becoming local-part-keyed).
func (p *Provider) shardFor(local string) *accountShard {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(local); i++ {
		h ^= uint64(local[i])
		h *= 0x100000001b3
	}
	h ^= '@'
	h *= 0x100000001b3
	for i := 0; i < len(p.domain); i++ {
		h ^= uint64(p.domain[i])
		h *= 0x100000001b3
	}
	return &p.shards[h&(accountShards-1)]
}

// Domain returns the provider's mail domain.
func (p *Provider) Domain() string { return p.domain }

// localOf splits a lowercased address under the provider's domain into its
// local part; ok is false for foreign addresses.
func (p *Provider) localOf(email string) (string, bool) {
	email = strings.ToLower(email)
	local, dom, found := strings.Cut(email, "@")
	if !found || dom != p.domain {
		return "", false
	}
	return local, true
}

// derive consults the deriver for the pristine account of an address.
func (p *Provider) derive(local string) (DerivedAccount, bool) {
	if p.deriver == nil {
		return DerivedAccount{}, false
	}
	return p.deriver.DeriveAccount(local + "@" + p.domain)
}

// CreateAccount provisions an account, applying the collision and
// naming-policy checks the paper describes: "the corresponding accounts
// unless they collided with a pre-existing account or violated the
// provider's naming policies." Creating an address the deriver covers
// materializes it with the supplied name and password (and no forwarding)
// — exactly the state an eager provisioning pass would have left.
func (p *Provider) CreateAccount(email, fullName, password string) error {
	email = strings.ToLower(email)
	local, ok := p.localOf(email)
	if !ok {
		return fmt.Errorf("emailprovider: %q is not an address under %s", email, p.domain)
	}
	if len(local) < 3 || len(local) > 64 || p.reserved[local] {
		return ErrNamingPolicy
	}
	for i := 0; i < len(local); i++ {
		c := local[i]
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '.' || c == '_' || c == '-') {
			return ErrNamingPolicy
		}
	}
	_, covered := p.derive(local)
	sh := p.shardFor(local)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.index[local]; dup {
		return ErrCollision
	}
	sh.insertLocked(local, fullName, password, "")
	if !covered {
		p.explicit.Add(1)
	}
	return nil
}

// lookup returns the materialized slot for email with its shard locked;
// the caller must unlock sh.mu. slot is -1 when the address has no row
// (it may still exist implicitly — callers consult derive).
func (p *Provider) lookup(email string) (local string, slot int32, sh *accountShard) {
	local, ok := p.localOf(email)
	if !ok {
		sh = &p.shards[0]
		sh.mu.Lock()
		return "", -1, sh
	}
	sh = p.shardFor(local)
	sh.mu.Lock()
	if s, found := sh.index[local]; found {
		return local, s, sh
	}
	return local, -1, sh
}

// materializeLocked turns an implicit pristine account into a shard row.
// Caller holds sh.mu and has verified the address is covered and absent.
func (sh *accountShard) materializeLocked(local string, d DerivedAccount) int32 {
	return sh.insertLocked(local, d.Name, d.Password, d.ForwardTo)
}

// Exists reports whether the address has an account, materialized or
// implicit.
func (p *Provider) Exists(email string) bool {
	local, slot, sh := p.lookup(email)
	sh.mu.Unlock()
	if slot >= 0 {
		return true
	}
	if local == "" {
		return false
	}
	_, covered := p.derive(local)
	return covered
}

// NumAccounts returns the number of provisioned accounts — every address
// the deriver covers plus every explicitly created one. Lock-free: the
// obs gauge samples it on every scrape.
func (p *Provider) NumAccounts() int {
	n := p.explicit.Load()
	if p.deriver != nil {
		n += p.deriver.DerivedCount()
	}
	return int(n)
}

// mutate runs fn against the account's row, materializing a covered
// implicit account first. It returns false when the address has no
// account at all.
func (p *Provider) mutate(email string, fn func(sh *accountShard, slot int32)) bool {
	local, slot, sh := p.lookup(email)
	defer sh.mu.Unlock()
	if slot < 0 {
		if local == "" {
			return false
		}
		d, covered := p.derive(local)
		if !covered {
			return false
		}
		slot = sh.materializeLocked(local, d)
	}
	fn(sh, slot)
	return true
}

// SetForwarding configures mail forwarding for email to target. Forwarding
// addresses are visible in the web interface, so Tripwire points them at
// innocuous domains it controls (paper §4.2).
func (p *Provider) SetForwarding(email, target string) error {
	ok := p.mutate(email, func(sh *accountShard, slot int32) {
		sh.forwards[slot] = target
	})
	if !ok {
		return fmt.Errorf("emailprovider: no account %q", email)
	}
	return nil
}

// ForwardingOf returns the forwarding target for email, if any. Implicit
// accounts report their derived target without materializing.
func (p *Provider) ForwardingOf(email string) (string, bool) {
	local, slot, sh := p.lookup(email)
	if slot >= 0 {
		fwd := sh.forwards[slot]
		sh.mu.Unlock()
		return fwd, fwd != ""
	}
	sh.mu.Unlock()
	if local == "" {
		return "", false
	}
	if d, covered := p.derive(local); covered && d.ForwardTo != "" {
		return d.ForwardTo, true
	}
	return "", false
}

// State returns the account's lifecycle state.
func (p *Provider) State(email string) (State, bool) {
	local, slot, sh := p.lookup(email)
	if slot >= 0 {
		st := State(sh.states[slot])
		sh.mu.Unlock()
		return st, true
	}
	sh.mu.Unlock()
	if local == "" {
		return Active, false
	}
	if _, covered := p.derive(local); covered {
		return Active, true
	}
	return Active, false
}

// Deliver accepts a message addressed to a provider account: it is stored
// in the account's inbox and, when forwarding is configured, relayed to the
// Tripwire mail server. Implements webgen.Mailer.
func (p *Provider) Deliver(from, to, subject, body string) error {
	var fwd string
	var deactivated bool
	ok := p.mutate(to, func(sh *accountShard, slot int32) {
		sh.inboxes[slot] = append(sh.inboxes[slot], imap.Message{From: from, Subject: subject, Body: body})
		fwd = sh.forwards[slot]
		deactivated = State(sh.states[slot]) == Deactivated
	})
	if !ok {
		return fmt.Errorf("emailprovider: no mailbox %q", to)
	}
	if fwd != "" && p.Forward != nil && !deactivated {
		return p.Forward(from, fwd, subject, body)
	}
	return nil
}

// Send implements webgen.Mailer so a Universe can deliver straight into
// provider mailboxes.
func (p *Provider) Send(from, to, subject, body string) error {
	return p.Deliver(from, to, subject, body)
}

// Inbox returns a copy of the account's stored messages.
func (p *Provider) Inbox(email string) []imap.Message {
	_, slot, sh := p.lookup(email)
	defer sh.mu.Unlock()
	if slot < 0 {
		return nil
	}
	inbox := sh.inboxes[slot]
	if len(inbox) == 0 {
		return nil
	}
	out := make([]imap.Message, len(inbox))
	copy(out, inbox)
	return out
}

// login is the shared auth path; method labels the access channel.
func (p *Provider) login(email, password string, remote netip.Addr, method string) (string, error) {
	now := p.Now()
	local, slot, sh := p.lookup(email)
	if slot < 0 {
		d, covered := DerivedAccount{}, false
		if local != "" {
			d, covered = p.derive(local)
		}
		if !covered {
			sh.mu.Unlock()
			if p.Metrics != nil {
				p.Metrics.authFailures.Inc()
			}
			return "", imap.ErrAuthFailed
		}
		if password == d.Password {
			// A correct-password login on a pristine account mutates
			// nothing (its failure counters are already zero), so it
			// succeeds without materializing a row.
			sh.mu.Unlock()
			account := local + "@" + p.domain
			p.log.append(LoginEvent{Account: account, Time: now, IP: remote, Method: method})
			p.maybeSpill()
			p.Metrics.loginOK(method)
			return account, nil
		}
		// Wrong password: the brute-force counters are about to move, so
		// the account becomes real.
		slot = sh.materializeLocked(local, d)
	}
	defer sh.mu.Unlock()
	if t := sh.throttledTil[slot]; t != 0 && now.Before(time.Unix(0, t)) {
		if p.Metrics != nil {
			p.Metrics.throttled.Inc()
		}
		return "", imap.ErrThrottled
	}
	st := State(sh.states[slot])
	if st == Frozen || st == Deactivated {
		if p.Metrics != nil {
			p.Metrics.lockedOut.Inc()
		}
		return "", imap.ErrAccountFrozen
	}
	if st == ResetForced || sh.passwords[slot] != password {
		// Track failures for the brute-force defence. Failed attempts are
		// never disclosed in dumps.
		if fs := sh.failedSince[slot]; fs == 0 || now.Sub(time.Unix(0, fs)) > p.BruteForceWindow {
			sh.failedSince[slot] = now.UnixNano()
			sh.failedCount[slot] = 0
		}
		sh.failedCount[slot]++
		if int(sh.failedCount[slot]) > p.BruteForceMax {
			sh.throttledTil[slot] = now.Add(p.ThrottlePeriod).UnixNano()
		}
		if p.Metrics != nil {
			p.Metrics.authFailures.Inc()
		}
		return "", imap.ErrAuthFailed
	}
	sh.failedCount[slot] = 0
	account := local + "@" + p.domain
	p.log.append(LoginEvent{Account: account, Time: now, IP: remote, Method: method})
	p.maybeSpill()
	p.Metrics.loginOK(method)
	return account, nil
}

// Login implements imap.Backend.
func (p *Provider) Login(user, pass string, remote netip.Addr) (imap.Session, error) {
	email, err := p.login(user, pass, remote, "IMAP")
	if err != nil {
		return nil, err
	}
	return &session{p: p, email: email}, nil
}

// methodBackend is an imap.Backend view of the provider that records a
// different access method in the login log (e.g. POP3 front ends).
type methodBackend struct {
	p      *Provider
	method string
}

// Login implements imap.Backend with the wrapped method label.
func (b methodBackend) Login(user, pass string, remote netip.Addr) (imap.Session, error) {
	email, err := b.p.login(user, pass, remote, b.method)
	if err != nil {
		return nil, err
	}
	return &session{p: b.p, email: email}, nil
}

// POPBackend returns a mailbox backend whose successful logins are logged
// with method "POP3"; the POP3 server front end uses it.
func (p *Provider) POPBackend() imap.Backend { return methodBackend{p: p, method: "POP3"} }

// WebLogin authenticates through the provider's web interface; Tripwire's
// own control-account logins use this method.
func (p *Provider) WebLogin(email, password string, remote netip.Addr) error {
	_, err := p.login(email, password, remote, "WEB")
	return err
}

// POPLogin authenticates via POP3 (some attacker tooling uses it).
func (p *Provider) POPLogin(email, password string, remote netip.Addr) error {
	_, err := p.login(email, password, remote, "POP3")
	return err
}

// session implements imap.Session over a provider account. It holds the
// address, not a row: a pristine account has no row yet, and re-resolving
// per operation keeps the session valid if one materializes mid-session.
type session struct {
	p        *Provider
	email    string
	selected bool
}

func (s *session) Select(mailbox string) (int, error) {
	if !strings.EqualFold(mailbox, "INBOX") {
		return 0, fmt.Errorf("emailprovider: no mailbox %q", mailbox)
	}
	s.selected = true
	_, slot, sh := s.p.lookup(s.email)
	defer sh.mu.Unlock()
	if slot < 0 {
		return 0, nil // pristine: empty inbox
	}
	return len(sh.inboxes[slot]), nil
}

func (s *session) Fetch(seq int) (imap.Message, error) {
	_, slot, sh := s.p.lookup(s.email)
	defer sh.mu.Unlock()
	if !s.selected || slot < 0 || seq < 1 || seq > len(sh.inboxes[slot]) {
		return imap.Message{}, fmt.Errorf("emailprovider: no message %d", seq)
	}
	return sh.inboxes[slot][seq-1], nil
}

func (s *session) Logout() error { return nil }
