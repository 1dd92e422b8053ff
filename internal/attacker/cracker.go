// Package attacker simulates the adversary whose behaviour Tripwire
// detects: it breaches site account databases, runs a real dictionary
// attack against hashed dumps (recovering exactly the easy passwords, never
// the hard ones), and feeds recovered credentials into a credential-
// stuffing botnet that logs in to the email provider over IMAP through a
// global residential proxy network — reproducing the login telemetry of
// paper §6.4.
package attacker

import (
	"runtime"
	"strings"

	"tripwire/internal/par"
	"tripwire/internal/webgen"
)

// Credential is one recovered (email, password) pair.
type Credential struct {
	Username string
	Email    string
	Password string
}

// Cracker recovers plaintext passwords from a breached dump. The wordlist
// is the attacker's dictionary; easy passwords (Word+digit) are inside it
// by construction, hard random passwords are not — so recovery rates follow
// from actual hash computation rather than simulation fiat.
type Cracker struct {
	// Words is the dictionary of seven-letter base words.
	Words []string
}

// candidates enumerates the dictionary-attack candidate passwords:
// capitalized word + single digit, the dominant weak-password shape.
func (c *Cracker) candidates() []string {
	out := make([]string, 0, len(c.Words)*10)
	for _, w := range c.Words {
		cap := strings.ToUpper(w[:1]) + w[1:]
		for d := '0'; d <= '9'; d++ {
			out = append(out, cap+string(d))
		}
	}
	return out
}

// Crack processes a dump and returns every credential the attacker
// recovers. Plaintext and reversible entries are recovered outright;
// hashed entries fall only to the dictionary. Entries crack on GOMAXPROCS
// goroutines, each into its own result slot, and the recovered credentials
// come back sorted by email.
func (c *Cracker) Crack(dump []webgen.DumpEntry) []Credential {
	cands := c.candidates()
	pws := make([]string, len(dump))
	cracked := make([]bool, len(dump))
	par.For(runtime.GOMAXPROCS(0), len(dump), func(i int) {
		pws[i], cracked[i] = crackOne(dump[i], cands)
	})
	var out []Credential
	for i, e := range dump {
		if cracked[i] {
			out = append(out, Credential{Username: e.Username, Email: e.Email, Password: pws[i]})
		}
	}
	sortCreds(out)
	return out
}

// crackOne attempts recovery of a single entry.
func crackOne(e webgen.DumpEntry, cands []string) (string, bool) {
	switch e.Policy {
	case webgen.StorePlaintext:
		return e.Stored, true
	case webgen.StoreReversible:
		return webgen.DecodeReversible(e.Stored)
	case webgen.StoreWeakHash, webgen.StoreStrongHash:
		for _, cand := range cands {
			if webgen.EncodePassword(e.Policy, cand, e.Salt) == e.Stored {
				return cand, true
			}
		}
		return "", false
	default:
		return "", false
	}
}

// FilterByDomain keeps only credentials whose email is under domain — the
// attacker testing "the most sensitive and important credentials", those at
// a major email provider (paper §1).
func FilterByDomain(creds []Credential, domain string) []Credential {
	var out []Credential
	suffix := "@" + strings.ToLower(domain)
	for _, c := range creds {
		if strings.HasSuffix(strings.ToLower(c.Email), suffix) {
			out = append(out, c)
		}
	}
	return out
}

func sortCreds(cs []Credential) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Email < cs[j-1].Email; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
