// Package attacker simulates the adversary whose behaviour Tripwire
// detects: it breaches site account databases, runs a real dictionary
// attack against hashed dumps (recovering exactly the easy passwords, never
// the hard ones), and feeds recovered credentials into a credential-
// stuffing botnet that logs in to the email provider over IMAP through a
// global residential proxy network — reproducing the login telemetry of
// paper §6.4.
package attacker

import (
	"crypto/md5"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"slices"
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
	slices.SortStableFunc(out, func(a, b Credential) int { return strings.Compare(a.Email, b.Email) })
	return out
}

// crackOne attempts recovery of a single entry.
func crackOne(e webgen.DumpEntry, cands []string) (string, bool) {
	switch e.Policy {
	case webgen.StorePlaintext:
		return e.Stored, true
	case webgen.StoreReversible:
		return webgen.DecodeReversible(e.Stored)
	case webgen.StoreWeakHash:
		raw, err := hex.DecodeString(e.Stored)
		if err != nil || len(raw) != md5.Size {
			return "", false
		}
		want := [md5.Size]byte(raw)
		for _, cand := range cands {
			if md5.Sum([]byte(cand)) == want {
				return cand, true
			}
		}
		return "", false
	case webgen.StoreStrongHash:
		raw, err := hex.DecodeString(e.Stored)
		if err != nil || len(raw) != sha256.Size {
			return "", false
		}
		want := [sha256.Size]byte(raw)
		// Candidates hash two at a time; lane 0 is checked first, so the
		// first match in dictionary order wins as in a one-by-one scan.
		i := 0
		for ; i+1 < len(cands); i += 2 {
			d0, d1 := webgen.StrongDigest2(cands[i], cands[i+1], e.Salt)
			if d0 == want {
				return cands[i], true
			}
			if d1 == want {
				return cands[i+1], true
			}
		}
		if i < len(cands) && webgen.StrongDigest(cands[i], e.Salt) == want {
			return cands[i], true
		}
		return "", false
	default:
		return "", false
	}
}

// FilterByDomain keeps only the dump rows whose email is under domain, in
// dump order — the attacker going after "the most sensitive and important
// credentials", those at a major email provider (paper §1), and cracking
// nothing else.
func FilterByDomain(dump []webgen.DumpEntry, domain string) []webgen.DumpEntry {
	var out []webgen.DumpEntry
	suffix := "@" + strings.ToLower(domain)
	for _, e := range dump {
		if strings.HasSuffix(strings.ToLower(e.Email), suffix) {
			out = append(out, e)
		}
	}
	return out
}
