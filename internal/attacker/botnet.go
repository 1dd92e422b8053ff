package attacker

import (
	"net/netip"
	"sync"
	"time"

	"tripwire/internal/geo"
	"tripwire/internal/imap"
	"tripwire/internal/loginrec"
	"tripwire/internal/memconn"
	"tripwire/internal/pop3"
	"tripwire/internal/xrand"
)

// hotProxies is how many recurring exits the deterministic leasing path
// draws reuse from; a small set keeps per-IP reuse counts near the paper's
// observed heavy-reuse tail.
const hotProxies = 256

// fnv64 hashes an identifier for child-seed derivation (FNV-1a).
func fnv64(s string) uint64 {
	const offset64, prime64 = 14695981039866320922, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// ProxyPool models the attacker's access network: "a global network of
// predominantly compromised residential machines acting as proxies" (paper
// §6.4). Most logins come from fresh addresses; a minority of proxies are
// reused, and a few are reused heavily.
//
// The exit Lease returns for (key, n) is a pure function of the pool seed,
// so concurrent leases by different accounts can never perturb each
// other's draws and timeline runs stay worker-count invariant.
type ProxyPool struct {
	space   *geo.Space
	seed    int64
	hotOnce sync.Once
	hot     []netip.Addr // deterministic reuse set, built on first Lease
	// ReuseProb is the probability a login reuses a previously seen proxy
	// instead of leasing a fresh one.
	ReuseProb float64
}

// NewProxyPool returns a pool drawing from space.
func NewProxyPool(space *geo.Space, seed int64, reuseProb float64) *ProxyPool {
	return &ProxyPool{space: space, seed: seed, ReuseProb: reuseProb}
}

// Lease leases the exit address for the n-th draw of key (an account
// email). The result is a pure function of (pool seed, key, n): reuse rolls
// and fresh samples come from a private derived RNG, and reused exits come
// from a seed-derived hot set — so leases are deterministic under any
// interleaving of concurrent callers.
func (p *ProxyPool) Lease(key string, n uint64) netip.Addr {
	p.hotOnce.Do(func() {
		hotRng := xrand.New(xrand.Mix(p.seed, -1, 0))
		p.hot = make([]netip.Addr, hotProxies)
		for i := range p.hot {
			p.hot[i] = p.space.SampleProxyIP(hotRng)
		}
	})
	rng := xrand.New(xrand.Mix(p.seed, int64(fnv64(key)), int64(n)))
	if rng.Float64() < p.ReuseProb {
		return p.hot[rng.Intn(len(p.hot))]
	}
	return p.space.SampleProxyIP(rng)
}

// LoginRecord is the attacker-side log of one attempt against the provider,
// as Records decodes it.
type LoginRecord struct {
	Email   string
	Time    time.Time
	IP      netip.Addr
	Success bool
}

// Stuffer performs credential-stuffing logins against an IMAP server using
// the real protocol over in-memory connections, with the proxy exit address
// injected as the remote IP the provider logs. A configurable minority of
// attempts use POP3 instead, matching the paper's "typically via IMAP"
// observation (§6.4).
//
// All of the stuffer's randomness (proxy leases, the IMAP/POP3 protocol
// split) derives from per-account draw counters, never from shared
// sequential RNGs, so concurrent stuffing of different accounts inside one
// timeline epoch produces exactly the logins a serial run would.
type Stuffer struct {
	Server *imap.Server
	Pool   *ProxyPool
	// Now supplies virtual timestamps for the attacker-side log.
	Now func() time.Time
	// Metrics, when non-nil, counts stuffing attempts and successes.
	Metrics *Metrics
	// Latency emulates one network round-trip of wall-clock delay per
	// login attempt (real stuffing tunnels through residential proxies and
	// is latency-bound, not CPU-bound). Zero — the default — keeps
	// simulations instant; benchmarks set it to measure how well timeline
	// workers overlap the waits.
	Latency time.Duration

	mu sync.Mutex
	// log is the attempt log: 24-byte records with no pointers, each
	// tagged 1 for a success. Its name table holds each account the
	// stuffer has touched, keyed by address, and draws[id] is that
	// account's deterministic draw counter (0 until its first draw).
	log   loginrec.Log
	draws []uint64

	pop     *pop3.Server
	popFrac float64
	popSeed int64
}

// NewStuffer returns a stuffing engine against server.
func NewStuffer(server *imap.Server, pool *ProxyPool, now func() time.Time) *Stuffer {
	return &Stuffer{Server: server, Pool: pool, Now: now}
}

// UsePOP routes frac of future logins through the given POP3 server, the
// way a minority of real collection tooling does. Which logins switch is a
// per-account deterministic function of (seed, email, draw count).
func (s *Stuffer) UsePOP(server *pop3.Server, frac float64, seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pop = server
	s.popFrac = frac
	s.popSeed = seed
}

// attempt is what one login attempt took under the stuffer's lock: its
// account's id in the attempt log, the draw its proxy lease uses, and the
// POP3 split's configuration and draw when one was taken.
type attempt struct {
	id      uint32
	lease   uint64
	pop     *pop3.Server // nil when the attempt took no protocol draw
	popDraw uint64
	popFrac float64
	popSeed int64
}

// drawLocked advances and returns account id's draw counter — the
// sequence number that makes every probabilistic choice about the account
// a pure function of (seed, email, how many draws came before). Caller
// holds mu.
func (s *Stuffer) drawLocked(id uint32) uint64 {
	for len(s.draws) <= int(id) {
		s.draws = append(s.draws, 0)
	}
	s.draws[id]++
	return s.draws[id] - 1
}

// nextDraw advances and returns email's draw counter.
func (s *Stuffer) nextDraw(email string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drawLocked(s.log.Intern(email, ""))
}

// begin interns email and takes its draws for one attempt under one lock:
// a proxy lease's when lease is set, then the IMAP/POP3 split's when UsePOP
// configured one.
func (s *Stuffer) begin(email string, lease bool) attempt {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := attempt{id: s.log.Intern(email, "")}
	if lease {
		a.lease = s.drawLocked(a.id)
	}
	if s.pop != nil && s.popFrac > 0 {
		a.pop, a.popDraw, a.popFrac, a.popSeed = s.pop, s.drawLocked(a.id), s.popFrac, s.popSeed
	}
	return a
}

// overPOP returns the POP3 server when this attempt of email goes over
// POP3, and nil when it goes over IMAP.
func (a *attempt) overPOP(email string) *pop3.Server {
	if a.pop == nil {
		return nil
	}
	rng := xrand.New(xrand.Mix(a.popSeed, int64(fnv64(email)), int64(a.popDraw)))
	if rng.Float64() < a.popFrac {
		return a.pop
	}
	return nil
}

// LeaseIP leases a proxy exit for one login against email, deterministic
// per account (see ProxyPool.Lease).
func (s *Stuffer) LeaseIP(email string) netip.Addr {
	return s.Pool.Lease(email, s.nextDraw(email))
}

// BeginSegment / EndSegment implement simclock.Sequencer for the
// attacker-side record log, as the provider's login log does (see
// loginrec.Log's Mark and Seal).
func (s *Stuffer) BeginSegment() {
	s.mu.Lock()
	s.log.Mark()
	s.mu.Unlock()
}

// EndSegment closes the segment opened by BeginSegment.
func (s *Stuffer) EndSegment() {
	s.mu.Lock()
	s.log.Seal()
	s.mu.Unlock()
}

// TryLogin attempts one IMAP login with cred from a leased proxy. When
// siphon is true and the login succeeds, the session selects INBOX and
// fetches every message, modelling ongoing observation/scraping rather than
// a bare credential check. It returns whether the login succeeded and the
// exit IP used.
func (s *Stuffer) TryLogin(cred Credential, siphon bool) (bool, netip.Addr) {
	a := s.begin(cred.Email, true)
	ip := s.Pool.Lease(cred.Email, a.lease)
	ok := s.loginVia(ip, cred, siphon, a.overPOP(cred.Email))
	s.record(a.id, ip, ok)
	return ok, ip
}

// TryLoginFrom is TryLogin pinned to a specific exit (single-IP burst
// behaviour, paper §6.4.2).
func (s *Stuffer) TryLoginFrom(ip netip.Addr, cred Credential, siphon bool) bool {
	a := s.begin(cred.Email, false)
	ok := s.loginVia(ip, cred, siphon, a.overPOP(cred.Email))
	s.record(a.id, ip, ok)
	return ok
}

// record logs an attempt on account id, as begin interned it.
func (s *Stuffer) record(id uint32, ip netip.Addr, ok bool) {
	var success uint8
	if ok {
		success = 1
	}
	s.mu.Lock()
	s.log.Append(id, s.Now(), ip, success)
	s.mu.Unlock()
	s.Metrics.attempt(ok)
}

// bot bundles the reusable pieces of one stuffing login: an inline conn
// that runs the provider's half of the session on the stuffer's goroutine,
// and a buffer-retaining client and server session per protocol. Bots are
// pooled so steady-state stuffing starts no goroutine and allocates no
// connection or buffer per login.
type bot struct {
	conn    memconn.Conn
	imapSrv imap.ServerSession
	imapCli imap.Client
	popSrv  pop3.ServerSession
	popCli  pop3.Client
}

var botPool = sync.Pool{New: func() any { return new(bot) }}

// loginVia logs in with cred from ip, over POP3 when pop is set and over
// IMAP otherwise.
func (s *Stuffer) loginVia(ip netip.Addr, cred Credential, siphon bool, pop *pop3.Server) bool {
	if s.Latency > 0 {
		time.Sleep(s.Latency)
	}
	b := botPool.Get().(*bot)
	defer botPool.Put(b)
	defer b.conn.Close()
	if pop != nil {
		b.popSrv.Reset(pop, ip)
		b.conn.Reset(&b.popSrv)
		return b.collectPOP(cred, siphon)
	}
	b.imapSrv.Reset(s.Server, ip)
	b.conn.Reset(&b.imapSrv)
	return b.collectIMAP(cred, siphon)
}

// collectIMAP logs in over IMAP and, when siphon is set, fetches the inbox.
func (b *bot) collectIMAP(cred Credential, siphon bool) bool {
	c := &b.imapCli
	if err := c.Reset(&b.conn); err != nil {
		return false
	}
	if err := c.Login(cred.Email, cred.Password); err != nil {
		_ = c.Logout()
		return false
	}
	if siphon {
		if n, err := c.Select("INBOX"); err == nil && n > 0 {
			_, _ = c.Fetch(1, n)
		}
	}
	_ = c.Logout()
	return true
}

// collectPOP collects over POP3 instead of IMAP.
func (b *bot) collectPOP(cred Credential, siphon bool) bool {
	c := &b.popCli
	if err := c.Reset(&b.conn); err != nil {
		return false
	}
	if err := c.Auth(cred.Email, cred.Password); err != nil {
		_ = c.Quit()
		return false
	}
	if siphon {
		if n, err := c.Stat(); err == nil {
			for i := 1; i <= n; i++ {
				_, _ = c.Retr(i)
			}
		}
	}
	_ = c.Quit()
	return true
}

// Records returns the attacker-side login log.
func (s *Stuffer) Records() []LoginRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]LoginRecord, s.log.Len())
	for i := range out {
		out[i] = s.recordLocked(s.log.At(i))
	}
	return out
}

// recordLocked decodes one attempt. Caller holds mu.
func (s *Stuffer) recordLocked(r *loginrec.Record) LoginRecord {
	return LoginRecord{Email: s.log.Name(r.Account), Time: r.Time(), IP: r.IP(s.log.Addrs()), Success: r.Tag != 0}
}
