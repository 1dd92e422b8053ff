package webgen

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tripwire/internal/captcha"
	"tripwire/internal/obs"
)

// Mailer is the outbound-email hook sites use to deliver verification and
// welcome messages. The simulation wires this to the email provider.
type Mailer interface {
	Send(from, to, subject, body string) error
}

// MailerFunc adapts a function to the Mailer interface.
type MailerFunc func(from, to, subject, body string) error

// Send implements Mailer.
func (f MailerFunc) Send(from, to, subject, body string) error { return f(from, to, subject, body) }

// universeShards is the number of locks the universe's mutable per-domain
// state is striped over. Power of two so the shard index is a mask of the
// domain hash. 64 shards keep 16 crawl workers essentially contention-free
// while costing a few empty maps per universe.
const universeShards = 64

// stateShard holds every piece of mutable per-domain state for the domains
// that hash into it, under its own lock. All per-domain invariants (token
// counters, login-failure streaks) are confined to a single shard because
// they are keyed by domain, so splitting the former universe-wide mutex
// changes no observable behaviour — only the amount of cross-domain lock
// sharing.
type stateShard struct {
	mu         sync.Mutex
	stores     map[string]*Store
	specs      map[string]*FormSpec
	issuers    map[string]*captcha.Issuer
	pending    map[string]pendingReg // multi-stage continuations
	tokenSeq   map[string]int        // per-domain token counters
	loginFails map[string]int        // "domain|user" -> consecutive failures

	// renderMu guards rendered, the per-(site, page-kind) body cache.
	// Every cached body is a pure function of the generated site — dynamic
	// values live in slots spliced at serve time — so entries never need
	// invalidation: a site's pages cannot change after generation. A racing
	// double-compute stores identical bytes and is harmless.
	renderMu sync.RWMutex
	rendered map[string]string
}

// siteSlot lazily materializes one ranked site on first touch.
type siteSlot struct {
	once sync.Once
	site *Site
}

// Universe is the generated synthetic web: a set of ranked sites plus their
// live backends, served as an http.Handler that routes on the Host header.
//
// Sites are materialized lazily: each *Site is a pure function of
// (Config.Seed, rank), derived on first touch under a per-rank sync.Once.
// A 100k-rank universe therefore costs memory only for the ranks actually
// crawled; Sites, SiteByRank and ServeHTTP behave byte-identically to eager
// generation (lazy_test.go proves the equivalence).
type Universe struct {
	cfg   Config
	slots []siteSlot
	// materialized counts slots whose site has been derived, for the
	// O(active-sites) memory claim and the sites-materialized gauge.
	materialized atomic.Int64

	shards [universeShards]stateShard

	// renderHits/renderMisses count cachedBody outcomes. Always-on atomics
	// (two adds per page serve); Observe exposes them to a metrics registry
	// at collection time.
	renderHits   atomic.Uint64
	renderMisses atomic.Uint64

	// disableRenderCache forces every page to be rendered from scratch.
	// Tests use it to prove cached and uncached serving are byte-identical.
	disableRenderCache bool

	// Mailer receives site-originated email. Nil drops mail.
	Mailer Mailer
	// Now supplies timestamps for account creation; defaults to time.Now.
	Now func() time.Time
}

type pendingReg struct {
	domain   string
	username string
	email    string
	password string
}

func newUniverse(cfg Config) *Universe {
	u := &Universe{
		cfg:   cfg,
		slots: make([]siteSlot, cfg.NumSites),
		Now:   time.Now,
	}
	for i := range u.shards {
		sh := &u.shards[i]
		sh.stores = make(map[string]*Store)
		sh.specs = make(map[string]*FormSpec)
		sh.issuers = make(map[string]*captcha.Issuer)
		sh.pending = make(map[string]pendingReg)
		sh.tokenSeq = make(map[string]int)
		sh.loginFails = make(map[string]int)
		sh.rendered = make(map[string]string)
	}
	return u
}

// shardFor maps a key (normally a domain) to its state shard via FNV-1a.
func (u *Universe) shardFor(key string) *stateShard {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 0x100000001b3
	}
	return &u.shards[h&(universeShards-1)]
}

// NumSites returns the universe's total rank count without materializing
// any site.
func (u *Universe) NumSites() int { return len(u.slots) }

// MaterializedSites returns how many sites have been derived so far.
func (u *Universe) MaterializedSites() int { return int(u.materialized.Load()) }

// Sites returns all sites in rank order, materializing any that have not
// been touched yet. Prefer NumSites + SiteByRank when only a subset is
// needed — this call makes the whole universe resident. The returned slice
// is fresh, but the sites are shared; treat them as read-only.
func (u *Universe) Sites() []*Site {
	out := make([]*Site, len(u.slots))
	for i := range u.slots {
		out[i], _ = u.SiteByRank(i + 1)
	}
	return out
}

// Site returns the site with the given domain. Generated domains encode
// their rank ("site%05d.test"), so the lookup derives the rank and never
// needs a domain index.
func (u *Universe) Site(domain string) (*Site, bool) {
	host := strings.ToLower(stripPort(domain))
	rank, ok := domainRank(host)
	if !ok {
		return nil, false
	}
	s, ok := u.SiteByRank(rank)
	if !ok || s.Domain != host {
		// Rejects aliases like "site1.test" whose canonical form is
		// "site00001.test".
		return nil, false
	}
	return s, true
}

// domainRank parses the rank out of a generated domain name.
func domainRank(host string) (int, bool) {
	const prefix, suffix = "site", ".test"
	if len(host) <= len(prefix)+len(suffix) ||
		!strings.HasPrefix(host, prefix) || !strings.HasSuffix(host, suffix) {
		return 0, false
	}
	digits := host[len(prefix) : len(host)-len(suffix)]
	rank := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' || rank > 1<<28 {
			return 0, false
		}
		rank = rank*10 + int(c-'0')
	}
	return rank, true
}

// SiteByRank returns the site with the given 1-based rank, deriving it on
// first touch.
func (u *Universe) SiteByRank(rank int) (*Site, bool) {
	if rank < 1 || rank > len(u.slots) {
		return nil, false
	}
	sl := &u.slots[rank-1]
	sl.once.Do(func() {
		sl.site = generateSiteAt(u.cfg, rank)
		u.materialized.Add(1)
	})
	return sl.site, true
}

// Store returns (creating on first use) the account database for domain.
func (u *Universe) Store(domain string) *Store {
	sh := u.shardFor(domain)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.stores[domain]
	if !ok {
		policy := StoreWeakHash
		if site, found := u.Site(domain); found {
			policy = site.Storage
		}
		st = NewStore(policy)
		sh.stores[domain] = st
	}
	return st
}

// FormSpec returns the registration-form layout for site (cached).
func (u *Universe) FormSpec(s *Site) *FormSpec {
	sh := u.shardFor(s.Domain)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	spec, ok := sh.specs[s.Domain]
	if !ok {
		spec = buildFormSpec(s)
		sh.specs[s.Domain] = spec
	}
	return spec
}

// Issuer returns the CAPTCHA issuer for site (cached).
func (u *Universe) Issuer(s *Site) *captcha.Issuer {
	sh := u.shardFor(s.Domain)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	is, ok := sh.issuers[s.Domain]
	if !ok {
		is = captcha.NewIssuer("captcha-" + s.Domain)
		sh.issuers[s.Domain] = is
	}
	return is
}

// nextToken mints an opaque token. Counters are kept per domain — not
// globally — so a token's value depends only on the minting site's own
// history, never on how registrations at different sites interleave. That
// keeps the parallel crawl engine's output independent of worker schedule.
func (u *Universe) nextToken(domain, prefix string) string {
	sh := u.shardFor(domain)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.tokenSeq[domain]++
	return fmt.Sprintf("%s-%s-%08d", prefix, domain, sh.tokenSeq[domain])
}

// cachedBody returns the rendered body for (site, kind), computing it with
// render on a miss. Render output is deterministic per site, so concurrent
// misses may compute twice but always store the same bytes.
func (u *Universe) cachedBody(site *Site, kind string, render func() string) string {
	sh := u.shardFor(site.Domain)
	key := site.Domain + "\x00" + kind
	sh.renderMu.RLock()
	body, ok := sh.rendered[key]
	sh.renderMu.RUnlock()
	if ok {
		u.renderHits.Add(1)
		return body
	}
	u.renderMisses.Add(1)
	body = render()
	sh.renderMu.Lock()
	sh.rendered[key] = body
	sh.renderMu.Unlock()
	return body
}

// Observe exposes the universe's render-cache counters and site counts on r
// at collection time. Call once per universe after construction.
func (u *Universe) Observe(r *obs.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("tripwire_webgen_render_cache_hits_total", "Page bodies served from the render cache.", u.renderHits.Load)
	r.CounterFunc("tripwire_webgen_render_cache_misses_total", "Page bodies rendered from scratch.", u.renderMisses.Load)
	r.GaugeFunc("tripwire_webgen_sites", "Total ranked sites in the universe.", func() int64 { return int64(len(u.slots)) })
	r.GaugeFunc("tripwire_webgen_sites_materialized", "Sites derived on demand so far (lazy materialization).", u.materialized.Load)
}

// WarmRender pre-renders every site's static page bodies into the render
// cache, so first-visit render cost does not land on whichever crawl task
// happens to touch a page first. It materializes every site as a side
// effect, so it only makes sense when the whole universe will be crawled —
// a full-coverage study, or a benchmark whose timed region is the crawl.
func (u *Universe) WarmRender() {
	if u.disableRenderCache {
		return
	}
	for _, site := range u.Sites() {
		if site.LoadFailure {
			continue
		}
		s := site
		u.cachedBody(s, "home", func() string { return renderHome(s) })
		u.cachedBody(s, "contact", func() string { return renderContact(s) })
		u.cachedBody(s, "login", func() string { return renderLogin(s) })
		u.cachedBody(s, "404", func() string {
			return pageShell(s, "Not found", "<p>Page not found.</p>")
		})
		if s.HasRegistration {
			u.cachedBody(s, "registration", func() string {
				return renderRegistrationTemplate(s, u.FormSpec(s))
			})
			u.cachedBody(s, "welcome", func() string { return renderOutcome(s, true, "") })
		}
	}
}

// servePage writes a static page body, serving it from the render cache
// unless caching is disabled.
func (u *Universe) servePage(w http.ResponseWriter, site *Site, kind string, render func() string) {
	if u.disableRenderCache {
		io.WriteString(w, render())
		return
	}
	io.WriteString(w, u.cachedBody(site, kind, render))
}

// registrationPage produces the GET registration page: the static template
// from the cache with this serve's dynamic values spliced in.
func (u *Universe) registrationPage(site *Site) string {
	if u.disableRenderCache {
		return renderRegistration(site, u.FormSpec(site), u.Issuer(site))
	}
	tpl := u.cachedBody(site, "registration", func() string {
		return renderRegistrationTemplate(site, u.FormSpec(site))
	})
	return spliceDynamic(tpl, site, u.Issuer(site))
}

func stripPort(host string) string {
	if i := strings.LastIndexByte(host, ':'); i >= 0 && !strings.Contains(host[i:], "]") {
		return host[:i]
	}
	return host
}

// ServeHTTP routes requests by Host header to the owning site.
func (u *Universe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	site, ok := u.Site(r.Host)
	if !ok {
		http.Error(w, "no such site", http.StatusBadGateway)
		return
	}
	if site.LoadFailure {
		http.Error(w, "service unavailable", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	path := r.URL.Path
	switch {
	case path == "/" || path == "/about":
		u.servePage(w, site, "home", func() string { return renderHome(site) })
	case path == "/contact":
		u.servePage(w, site, "contact", func() string { return renderContact(site) })
	case path == "/members" && site.PublicMembers:
		u.handleMembers(w, site)
	case path == "/login" && r.Method == http.MethodGet:
		u.servePage(w, site, "login", func() string { return renderLogin(site) })
	case path == "/login" && r.Method == http.MethodPost:
		u.handleLogin(w, r, site)
	case path == "/verify":
		u.handleVerify(w, r, site)
	case strings.HasPrefix(path, "/captcha/"):
		// The synthetic image "renders" its answer the way real CAPTCHA
		// pixels do; only solving services read it back out.
		id := strings.TrimSuffix(strings.TrimPrefix(path, "/captcha/"), ".png")
		ch := captcha.Challenge{ID: id, Kind: captcha.Image}
		w.Header().Set("Content-Type", "image/png")
		io.WriteString(w, u.Issuer(site).RenderImage(ch))
	case site.HasRegistration && path == site.RegPath && r.Method == http.MethodGet:
		io.WriteString(w, u.registrationPage(site))
	case site.HasRegistration && path == site.RegPath && r.Method == http.MethodPost:
		u.handleRegister(w, r, site)
	case site.HasRegistration && site.MultiStage && path == site.RegPath+"/complete" && r.Method == http.MethodPost:
		u.handleRegisterComplete(w, r, site)
	default:
		w.WriteHeader(http.StatusNotFound)
		u.servePage(w, site, "404", func() string {
			return pageShell(site, "Not found", "<p>Page not found.</p>")
		})
	}
}

// handleRegister validates a registration submission against the site's
// form spec and either creates the account, advances to step two, or
// renders a validation failure.
func (u *Universe) handleRegister(w http.ResponseWriter, r *http.Request, site *Site) {
	if site.ExternalAuthOnly {
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, pageShell(site, "Not found", "<p>Registration is handled by our identity partner.</p>"))
		return
	}
	if err := r.ParseForm(); err != nil {
		io.WriteString(w, renderOutcome(site, false, "malformed submission"))
		return
	}
	spec := u.FormSpec(site)
	get := func(kind FieldKind) string {
		if f, ok := spec.Field(kind); ok {
			return strings.TrimSpace(r.PostFormValue(f.Name))
		}
		return ""
	}

	if get(FieldCSRF) != csrfToken(site.Domain) {
		io.WriteString(w, renderOutcome(site, false, "session expired, please reload the form"))
		return
	}
	for _, f := range spec.Fields {
		if !f.Required || f.Kind == FieldCSRF || f.Kind == FieldCaptcha {
			continue
		}
		if strings.TrimSpace(r.PostFormValue(f.Name)) == "" {
			io.WriteString(w, renderOutcome(site, false, "missing required field: "+f.Label))
			return
		}
	}

	email := get(FieldEmail)
	if !strings.Contains(email, "@") || strings.Contains(email, " ") {
		io.WriteString(w, renderOutcome(site, false, "invalid email address"))
		return
	}
	if site.MaxEmailLen > 0 && len(email) > site.MaxEmailLen {
		io.WriteString(w, renderOutcome(site, false, fmt.Sprintf("email address must be at most %d characters", site.MaxEmailLen)))
		return
	}
	password := get(FieldPassword)
	if !site.Passwords.Accepts(password) {
		io.WriteString(w, renderOutcome(site, false, "password does not meet requirements"))
		return
	}
	if _, hasConfirm := spec.Field(FieldConfirm); hasConfirm && get(FieldConfirm) != password {
		io.WriteString(w, renderOutcome(site, false, "passwords do not match"))
		return
	}
	if site.Captcha != captcha.None {
		ch := captcha.Challenge{ID: r.PostFormValue("captcha_id"), Kind: site.Captcha}
		answer := get(FieldCaptcha)
		if site.Captcha == captcha.Interactive {
			answer = r.PostFormValue("captcha_token")
		}
		if !u.Issuer(site).Verify(ch, answer) {
			io.WriteString(w, renderOutcome(site, false, "the verification code was incorrect"))
			return
		}
	}

	username := get(FieldUsername)
	if username == "" {
		username = email[:strings.IndexByte(email, '@')]
	}

	if site.MultiStage {
		cont := u.nextToken(site.Domain, "cont")
		sh := u.shardFor(site.Domain)
		sh.mu.Lock()
		sh.pending[cont] = pendingReg{domain: site.Domain, username: username, email: email, password: password}
		sh.mu.Unlock()
		io.WriteString(w, renderStep2(site, profileFormSpec(site), cont))
		return
	}
	u.finishRegistration(w, site, username, email, password)
}

// handleRegisterComplete finishes a multi-stage registration.
func (u *Universe) handleRegisterComplete(w http.ResponseWriter, r *http.Request, site *Site) {
	if err := r.ParseForm(); err != nil {
		io.WriteString(w, renderOutcome(site, false, "malformed submission"))
		return
	}
	cont := r.PostFormValue("continuation")
	sh := u.shardFor(site.Domain)
	sh.mu.Lock()
	pend, ok := sh.pending[cont]
	if ok {
		delete(sh.pending, cont)
	}
	sh.mu.Unlock()
	if !ok || pend.domain != site.Domain {
		io.WriteString(w, renderOutcome(site, false, "registration session expired"))
		return
	}
	spec := profileFormSpec(site)
	for _, f := range spec.Fields {
		if !f.Required || f.Kind == FieldCSRF {
			continue
		}
		if strings.TrimSpace(r.PostFormValue(f.Name)) == "" {
			io.WriteString(w, renderOutcome(site, false, "missing required field: "+f.Label))
			return
		}
	}
	u.finishRegistration(w, site, pend.username, pend.email, pend.password)
}

func (u *Universe) finishRegistration(w http.ResponseWriter, site *Site, username, email, password string) {
	if site.FlakyBackend {
		// The paper's "OK submission, 59% valid" / "Email received, 82%
		// valid" residue: the site renders success — and its decoupled
		// marketing pipeline may even send a welcome mail — but the account
		// store persists nothing.
		if site.WelcomeEmail {
			u.sendMail(site, email,
				"Welcome to "+site.Name,
				fmt.Sprintf("Hi!\r\n\r\nThanks for joining %s. We are glad to have you.\r\n\r\nThe %s team\r\n", site.Name, site.Name))
		}
		u.servePage(w, site, "welcome", func() string { return renderOutcome(site, true, "") })
		return
	}
	st := u.Store(site.Domain)
	salt := ""
	if site.Storage == StoreStrongHash {
		salt = u.nextToken(site.Domain, "salt")
	}
	if _, err := st.Create(username, email, password, salt, u.Now()); err != nil {
		io.WriteString(w, renderOutcome(site, false, "that username is already taken"))
		return
	}
	switch {
	case site.EmailVerify:
		tok := u.nextToken(site.Domain, "vfy")
		st.IssueVerifyToken(username, tok)
		if site.BrokenVerify {
			// The emailed link carries a mangled token: clicking it never
			// verifies the account (one source of the paper's ~2% failures
			// in the Email-verified bin).
			tok = "broken-" + tok
		}
		u.sendMail(site, email,
			"Please verify your account at "+site.Name,
			fmt.Sprintf("Welcome to %s!\r\n\r\nPlease confirm your email address by clicking the link below:\r\nhttp://%s/verify?token=%s\r\n\r\nIf you did not register, ignore this message.\r\n", site.Name, site.Domain, tok))
	case site.WelcomeEmail:
		u.sendMail(site, email,
			"Welcome to "+site.Name,
			fmt.Sprintf("Hi!\r\n\r\nThanks for joining %s. We are glad to have you.\r\n\r\nThe %s team\r\n", site.Name, site.Name))
	}
	u.servePage(w, site, "welcome", func() string { return renderOutcome(site, true, "") })
}

func (u *Universe) sendMail(site *Site, to, subject, body string) {
	if u.Mailer == nil {
		return
	}
	// Errors are deliberately dropped: a site does not care whether its
	// welcome mail bounced, and neither does the simulation.
	_ = u.Mailer.Send("noreply@"+site.Domain, to, subject, body)
}

// DomainWhois is a domain-registration WHOIS record (distinct from the IP
// WHOIS in internal/geo). The disclosure process emails the registrant
// listed here (paper §6.3.1).
type DomainWhois struct {
	Domain     string
	Registrant string
	// Expired marks registrant addresses whose domain has lapsed and been
	// re-registered by a squatter (the paper's site M).
	Expired bool
}

// Whois returns the domain-WHOIS record for host.
func (u *Universe) Whois(host string) (DomainWhois, bool) {
	site, ok := u.Site(host)
	if !ok {
		return DomainWhois{}, false
	}
	return DomainWhois{Domain: site.Domain, Registrant: site.WhoisEmail, Expired: site.WhoisExpired}, true
}

// SearchRegistrationPages plays the role of a public search engine's index
// for the synthetic web (the paper's §6.2.2 suggestion: "it may be possible
// to rely on search engines to help locate the registration pages"). A
// search engine has crawled every reachable page, including ones linked
// only through image-text anchors, so it can answer "registration page for
// <domain>" queries the on-page text heuristics cannot.
func (u *Universe) SearchRegistrationPages(host string) []string {
	site, ok := u.Site(host)
	if !ok || site.LoadFailure || !site.HasRegistration || site.ExternalAuthOnly {
		return nil
	}
	return []string{"http://" + site.Domain + site.RegPath}
}

// handleVerify consumes a verification token.
func (u *Universe) handleVerify(w http.ResponseWriter, r *http.Request, site *Site) {
	tok := r.URL.Query().Get("token")
	if u.Store(site.Domain).Verify(tok) {
		u.servePage(w, site, "verified", func() string {
			return pageShell(site, "Verified", "<p>Your email address has been verified. Thank you!</p>")
		})
		return
	}
	w.WriteHeader(http.StatusBadRequest)
	u.servePage(w, site, "verify-invalid", func() string {
		return pageShell(site, "Invalid token", "<p>This verification link is invalid or has expired.</p>")
	})
}

// handleMembers serves the public member directory: one list item per
// registered username. Attackers harvest these for brute-force targeting.
func (u *Universe) handleMembers(w http.ResponseWriter, site *Site) {
	var b strings.Builder
	b.WriteString("<h2>Members</h2>\n<ul class=\"members\">\n")
	for _, e := range u.Store(site.Domain).Dump() {
		fmt.Fprintf(&b, "<li class=\"member\">%s</li>\n", escape(e.Username))
	}
	b.WriteString("</ul>\n")
	io.WriteString(w, pageShell(site, "Members", b.String()))
}

// loginThrottled applies the site's own brute-force defence (when it has
// one): more than 10 consecutive failures against one account return 429s.
// Sites without rate limiting — the paper's sites E and F — never throttle.
func (u *Universe) loginThrottled(site *Site, user string) bool {
	if !site.RateLimitsLogin {
		return false
	}
	sh := u.shardFor(site.Domain)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.loginFails[site.Domain+"|"+strings.ToLower(user)] > 10
}

func (u *Universe) noteLogin(site *Site, user string, ok bool) {
	sh := u.shardFor(site.Domain)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	key := site.Domain + "|" + strings.ToLower(user)
	if ok {
		delete(sh.loginFails, key)
	} else {
		sh.loginFails[key]++
	}
}

// handleLogin authenticates a username/email + password pair. The
// registration-validation probes in the simulation use this endpoint the
// way the authors manually tested sampled accounts (paper §5.2.3).
func (u *Universe) handleLogin(w http.ResponseWriter, r *http.Request, site *Site) {
	if err := r.ParseForm(); err != nil {
		io.WriteString(w, renderOutcome(site, false, "malformed submission"))
		return
	}
	login := strings.TrimSpace(r.PostFormValue("login"))
	password := r.PostFormValue("password")
	if u.loginThrottled(site, login) {
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, pageShell(site, "Slow down", "<p class=\"error\">Too many attempts. Try again later.</p>"))
		return
	}
	st := u.Store(site.Domain)
	acct, ok := st.Lookup(login)
	if !ok && strings.Contains(login, "@") {
		// Allow login by email address.
		for _, e := range st.Dump() {
			if strings.EqualFold(e.Email, login) {
				acct, ok = st.Lookup(e.Username)
				break
			}
		}
	}
	if !ok || !st.CheckPassword(acct.Username, password) {
		u.noteLogin(site, login, false)
		w.WriteHeader(http.StatusUnauthorized)
		io.WriteString(w, pageShell(site, "Login failed", "<p class=\"error\">Invalid username or password.</p>"))
		return
	}
	u.noteLogin(site, login, true)
	if site.VerifyToLogin && !acct.Verified {
		w.WriteHeader(http.StatusForbidden)
		io.WriteString(w, pageShell(site, "Not verified", "<p class=\"error\">Please verify your email address before logging in.</p>"))
		return
	}
	// The landing page after login doubles as the account overview and
	// shows the address on file — which is how an attacker who guessed a
	// site password learns the email account to pivot to (§6.3.5).
	io.WriteString(w, pageShell(site, "Welcome", fmt.Sprintf(
		"<p>%s, %s!</p>\n<p class=\"account-email\">Email on file: %s</p>",
		site.lex().welcome, escape(acct.Username), escape(acct.Email))))
}
