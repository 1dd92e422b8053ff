package tripwire

// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation (see DESIGN.md's per-experiment index), plus ablation
// benchmarks for the design choices the paper calls out. Each table/figure
// benchmark amortizes one pilot run across iterations and measures artifact
// regeneration, asserting the paper's shape properties as it goes.
//
// Run everything with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"tripwire/internal/attacker"
	"tripwire/internal/browser"
	"tripwire/internal/captcha"
	"tripwire/internal/core"
	"tripwire/internal/crawler"
	"tripwire/internal/emailprovider"
	"tripwire/internal/htmldom"
	"tripwire/internal/identity"
	"tripwire/internal/report"
	"tripwire/internal/sim"
	"tripwire/internal/simclock"
	"tripwire/internal/webgen"
)

var (
	benchOnce  sync.Once
	benchStudy *Study
)

// benchPilot runs one shared small-scale pilot for the artifact benchmarks.
func benchPilot(b *testing.B) *sim.Pilot {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy = New(WithConfig(SmallConfig())).Run()
	})
	return benchStudy.Pilot()
}

// BenchmarkTable1AccountCreation regenerates Table 1 (account-creation
// estimates by status bin) and checks the paper's ordering of validity
// rates: Email verified > OK submission > Bad heuristics.
func BenchmarkTable1AccountCreation(b *testing.B) {
	p := benchPilot(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := report.Table1(p.ValidateAll())
		byStatus := map[core.AccountStatus]report.Table1Row{}
		for _, r := range rows {
			byStatus[r.Status] = r
		}
		ev := byStatus[core.StatusEmailVerified]
		ok := byStatus[core.StatusOKSubmission]
		bad := byStatus[core.StatusBadHeuristics]
		if !(ev.Success > ok.Success && ok.Success > bad.Success) {
			b.Fatalf("validity ordering broken: verified=%.2f ok=%.2f bad=%.2f",
				ev.Success, ok.Success, bad.Success)
		}
		if ev.Success < 0.90 || bad.Success > 0.25 {
			b.Fatalf("validity rates out of band: verified=%.2f bad=%.2f", ev.Success, bad.Success)
		}
	}
}

// BenchmarkTable2CompromisedSites regenerates Table 2 and checks the
// detection inventory: every detection is a true positive and rank rounding
// matches the paper's convention.
func BenchmarkTable2CompromisedSites(b *testing.B) {
	p := benchPilot(b)
	breaches := p.Campaign.Breaches()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := report.Table2(p)
		if len(rows) == 0 {
			b.Fatal("no compromises detected")
		}
		dets := p.Monitor.Detections()
		for j, r := range rows {
			if _, ok := breaches[dets[j].Domain]; !ok {
				b.Fatalf("false positive at %s", dets[j].Domain)
			}
			if r.RankRounded%500 != 0 {
				b.Fatalf("rank %d not rounded to 500", r.RankRounded)
			}
		}
	}
}

// BenchmarkTable3LoginActivity regenerates Table 3 (per-account login
// timing) and checks the paper's invariants: until/since/days-accessed are
// consistent with the study window.
func BenchmarkTable3LoginActivity(b *testing.B) {
	p := benchPilot(b)
	span := int(p.Cfg.End.Sub(p.Cfg.Start).Hours()/24) + 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := report.Table3(p)
		if len(rows) == 0 {
			b.Fatal("no accessed accounts")
		}
		for _, r := range rows {
			if r.Logins < 1 {
				b.Fatalf("account %s has %d logins", r.Alias, r.Logins)
			}
			if r.UntilDays < 0 || r.UntilDays > span || r.SinceDays > span || r.AccessedDays > span {
				b.Fatalf("account %s timing out of range: %+v", r.Alias, r)
			}
		}
	}
}

// BenchmarkTable4Eligibility regenerates Table 4 (eligibility census) and
// checks the paper's headline rates: ~44% non-English and a registration-
// availability decline down-rank.
func BenchmarkTable4Eligibility(b *testing.B) {
	p := benchPilot(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := report.Table4(p, []int{1, 1000})
		if len(rows) != 2 {
			b.Fatalf("rows = %d", len(rows))
		}
		for _, r := range rows {
			total := r.LoadFailure + r.NotEnglish + r.NoRegistration + r.Ineligible + r.Rest
			if total < 99.5 || total > 100.5 {
				b.Fatalf("census row does not sum to 100%%: %+v", r)
			}
		}
	}
}

// BenchmarkFigure1TerminationCodes regenerates the Figure-1 termination-code
// distribution and checks that every code occurs and no-registration
// dominates.
func BenchmarkFigure1TerminationCodes(b *testing.B) {
	p := benchPilot(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := report.Fig1(p)
		for code, n := range counts {
			if n == 0 {
				b.Fatalf("code %v never occurred", code)
			}
		}
		if counts[crawler.CodeNoRegistration] <= counts[crawler.CodeOKSubmission] {
			b.Fatal("no-registration should dominate OK submissions")
		}
	}
}

// BenchmarkFigure2Timeline regenerates the registration/login timeline and
// checks each row carries a registration mark and activity.
func BenchmarkFigure2Timeline(b *testing.B) {
	p := benchPilot(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := report.Fig2(p)
		if !strings.Contains(out, "R") || !strings.Contains(out, "*") {
			b.Fatalf("timeline lacks registrations or logins:\n%s", out)
		}
	}
}

// BenchmarkFigure3Funnel regenerates the registration funnel and checks the
// paper's shape: most sites ineligible; success on eligible sites is a
// minority; the middle splits across all loss modes.
func BenchmarkFigure3Funnel(b *testing.B) {
	p := benchPilot(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := report.Fig3(p, p.ValidateAll())
		if f.IneligibleFrac < 0.45 || f.IneligibleFrac > 0.80 {
			b.Fatalf("ineligible fraction %.2f out of band (~0.64)", f.IneligibleFrac)
		}
		if f.SuccessOnElig <= 0 || f.SuccessOnElig > 0.5 {
			b.Fatalf("success on eligible %.2f out of band (~0.19)", f.SuccessOnElig)
		}
		if f.NoRegFound == 0 || f.SystemErrors == 0 || f.FailedFills == 0 {
			b.Fatalf("funnel missing a loss mode: %+v", f)
		}
	}
}

// BenchmarkSec64AttackerBehavior regenerates the §6.4 attacker statistics
// and checks: RU leads the country mix, residential IPs dominate, IMAP is
// the access method, and bursty accounts exist.
func BenchmarkSec64AttackerBehavior(b *testing.B) {
	p := benchPilot(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := report.Sec64(p)
		if st.TotalLogins == 0 || st.DistinctIPs == 0 {
			b.Fatal("no attacker telemetry")
		}
		if len(st.TopCountries) == 0 || st.TopCountries[0].Code != "RU" {
			b.Fatalf("top countries = %+v, want RU first", st.TopCountries)
		}
		if st.ResidentialPct < 60 {
			b.Fatalf("residential share %.0f%%, want majority", st.ResidentialPct)
		}
		if st.IMAPPct < 90 {
			b.Fatalf("IMAP share %.0f%%", st.IMAPPct)
		}
	}
}

// --- Ablation and component benchmarks -----------------------------------

// BenchmarkAblationCrackWeakVsStrong measures the real dictionary-attack
// cost asymmetry between unsalted-fast and salted-slow hashing that
// underlies the paper's §6.1.2 easy-before-hard observation.
func BenchmarkAblationCrackWeakVsStrong(b *testing.B) {
	gen := identity.NewGenerator("bigmail.test", 21)
	mkDump := func(policy webgen.StoragePolicy, n int) []webgen.DumpEntry {
		st := webgen.NewStore(policy)
		for i := 0; i < n; i++ {
			id := gen.New(identity.Easy)
			salt := fmt.Sprintf("s%d", i)
			st.Create(fmt.Sprintf("u%d", i), id.Email, id.Password, salt, time.Time{})
		}
		return st.Dump()
	}
	for _, tc := range []struct {
		name   string
		policy webgen.StoragePolicy
	}{
		{"WeakHash", webgen.StoreWeakHash},
		{"StrongHash", webgen.StoreStrongHash},
	} {
		dump := mkDump(tc.policy, 32)
		b.Run(tc.name, func(b *testing.B) {
			c := &attacker.Cracker{Words: identity.DictionaryWords()}
			for i := 0; i < b.N; i++ {
				creds := c.Crack(dump)
				if len(creds) != len(dump) {
					b.Fatalf("recovered %d of %d easy passwords", len(creds), len(dump))
				}
			}
		})
	}
}

// BenchmarkAblationPasswordPairing compares breach-type classification with
// the paper's easy+hard pairing against an easy-only deployment: with both
// classes the plaintext verdict is reachable; easy-only leaves storage
// indeterminate.
func BenchmarkAblationPasswordPairing(b *testing.B) {
	run := func(withHard bool) core.BreachClass {
		ledger := core.NewLedger()
		gen := identity.NewGenerator("bigmail.test", 31)
		t0 := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
		clock := simclock.New(t0)
		provider := emailprovider.New("bigmail.test")
		provider.Now = clock.Now
		classes := []identity.PasswordClass{identity.Easy}
		if withHard {
			classes = append(classes, identity.Hard)
		}
		for _, cl := range classes {
			id := gen.New(cl)
			ledger.AddIdentity(id)
			ledger.Burn(id, "v.test", 1, "X", t0, crawler.CodeOKSubmission, false)
			if err := provider.CreateAccount(id.Email, id.FullName(), id.Password); err != nil {
				b.Fatal(err)
			}
			clock.Advance(time.Hour)
			if _, err := provider.Login(id.Email, id.Password, netip.MustParseAddr("198.51.100.20")); err != nil {
				b.Fatal(err)
			}
		}
		m := core.NewMonitor(ledger, t0)
		m.Ingest(provider.DumpSince(t0))
		det, _ := m.Detection("v.test")
		return m.Classify(det)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := run(true); got != core.BreachPlaintext {
			b.Fatalf("paired registration: %v, want plaintext verdict", got)
		}
		if got := run(false); got != core.BreachIndeterminate {
			b.Fatalf("easy-only registration: %v, want indeterminate", got)
		}
	}
}

// BenchmarkCrawlerSingleSite measures one full registration attempt against
// an eligible site over the in-process HTTP stack.
func BenchmarkCrawlerSingleSite(b *testing.B) {
	cfg := webgen.DefaultConfig()
	cfg.NumSites = 300
	universe := webgen.Generate(cfg)
	var target *webgen.Site
	for _, s := range universe.Sites() {
		if s.Eligible() && !s.JSForm && !s.OddFieldNames && s.Captcha == captcha.None && !s.MultiStage {
			target = s
			break
		}
	}
	if target == nil {
		b.Fatal("no clean site")
	}
	gen := identity.NewGenerator("bigmail.test", 41)
	ccfg := crawler.DefaultConfig()
	c := crawler.New(ccfg, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: universe}))
		res := c.Register(br, "http://"+target.Domain+"/", gen.New(identity.Hard))
		if res.Code != crawler.CodeOKSubmission {
			b.Fatalf("code = %v (%s)", res.Code, res.Detail)
		}
	}
}

// BenchmarkHTMLParse measures DOM construction over a rendered registration
// page — the crawler's hot path.
func BenchmarkHTMLParse(b *testing.B) {
	cfg := webgen.DefaultConfig()
	cfg.NumSites = 50
	universe := webgen.Generate(cfg)
	br := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: universe}))
	page, err := br.Get("http://site00001.test/")
	if err != nil {
		b.Fatal(err)
	}
	raw := page.Raw
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := htmldom.Parse(raw)
		if doc.FirstChild() == nil {
			b.Fatal("empty parse")
		}
	}
}

// BenchmarkIdentityGeneration measures identity minting throughput (the
// pilot provisions >100k accounts).
func BenchmarkIdentityGeneration(b *testing.B) {
	gen := identity.NewGenerator("bigmail.test", 51)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := gen.New(identity.Hard)
		if id.Email == "" {
			b.Fatal("empty identity")
		}
	}
}
