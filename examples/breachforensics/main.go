// Breachforensics demonstrates the paper's §4.1.2 / §6.1.2 password-
// management inference in isolation: how registering paired easy/hard
// accounts lets Tripwire tell, from the outside, whether a breached site
// stored passwords in plaintext or hashed them.
//
// It builds four single-site scenarios (plaintext, reversible "encryption",
// unsalted fast hash, salted slow hash), breaches each with the real
// attacker pipeline (dump → dictionary crack → IMAP credential stuffing),
// and shows the breach classification Tripwire infers from which honey
// accounts tripped.
package main

import (
	"fmt"
	"strings"
	"time"

	"tripwire/internal/attacker"
	"tripwire/internal/core"
	"tripwire/internal/crawler"
	"tripwire/internal/emailprovider"
	"tripwire/internal/geo"
	"tripwire/internal/identity"
	"tripwire/internal/imap"
	"tripwire/internal/simclock"
	"tripwire/internal/webgen"
)

func main() {
	fmt.Println("Breach forensics: inferring password storage from the outside")
	fmt.Println("==============================================================")
	policies := []webgen.StoragePolicy{
		webgen.StorePlaintext,
		webgen.StoreReversible,
		webgen.StoreWeakHash,
		webgen.StoreStrongHash,
	}
	for _, policy := range policies {
		verdict, accessed := runScenario(policy)
		fmt.Printf("\nSite stores passwords as %-12s ->  accounts tripped: %s\n", policy, accessed)
		fmt.Printf("  Tripwire's external verdict: %s\n", verdict)
	}
	fmt.Println("\nNote how hard (random 10-char) passwords trip only when storage is")
	fmt.Println("plaintext-equivalent: the dictionary attack in this demo is real —")
	fmt.Println("the attacker hashes every Word+digit candidate against the dump.")
}

func runScenario(policy webgen.StoragePolicy) (core.BreachClass, string) {
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(300 * 24 * time.Hour)
	clock := simclock.New(start)
	sched := simclock.NewScheduler(clock)

	provider := emailprovider.New("bigmail.test")
	provider.Now = clock.Now

	gen := identity.NewGenerator("bigmail.test", int64(policy)+100)
	hard := gen.New(identity.Hard)
	easy := gen.New(identity.Easy)
	ledger := core.NewLedger()
	for _, id := range []*identity.Identity{hard, easy} {
		if err := provider.CreateAccount(id.Email, id.FullName(), id.Password); err != nil {
			panic(err)
		}
		ledger.AddIdentity(id)
	}

	// "Register" both honey accounts at the victim site.
	const domain = "victim.test"
	store := webgen.NewStore(policy)
	for _, id := range []*identity.Identity{hard, easy} {
		taken := ledger.Take(id.Class)
		salt := ""
		if policy == webgen.StoreStrongHash {
			salt = "salt-" + taken.Username
		}
		local, _, _ := strings.Cut(taken.Email, "@")
		if _, err := store.Create(local, taken.Email, taken.Password, salt, clock.Now()); err != nil {
			panic(err)
		}
		ledger.Burn(taken, domain, 1234, "Gaming", clock.Now(), crawler.CodeOKSubmission, false)
	}

	// Attacker breaches the site and stuffs whatever it can crack.
	pool := attacker.NewProxyPool(geo.NewSpace(), int64(policy)+5, 0.2)
	stuffer := attacker.NewStuffer(imap.NewServer(provider), pool, clock.Now)
	camp := attacker.NewCampaign(attacker.DefaultCampaignConfig(end), sched, stuffer, provider)
	camp.Breach(domain, store, start.Add(24*time.Hour))
	sched.RunUntil(end)

	// Tripwire ingests the provider's login dump and classifies the breach.
	monitor := core.NewMonitor(ledger, start)
	monitor.Ingest(provider.DumpSince(start))
	det, ok := monitor.Detection(domain)
	if !ok {
		return core.BreachIndeterminate, "(none — breach undetected)"
	}
	var names []string
	for _, email := range det.Accounts() {
		reg, _ := ledger.Lookup(email)
		names = append(names, reg.Identity.Class.String())
	}
	if len(names) == 2 && names[0] > names[1] {
		names[0], names[1] = names[1], names[0]
	}
	return monitor.Classify(det), strings.Join(names, " + ")
}
