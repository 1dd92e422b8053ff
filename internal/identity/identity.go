// Package identity generates the fictitious identities Tripwire registers
// at websites (paper §4.1). Each identity maps one-to-one to an email
// account and password at the partner email provider and is designed to be
// indistinguishable from an organically created account: full name, valid
// US-shaped street address, US phone number, date of birth, and employer.
//
// Usernames and email local-parts follow the paper's "adjective, noun, and a
// four-digit number" scheme (e.g. ArguableGem8317); the first 14 characters
// serve as the username at sites that require one distinct from the email
// address.
//
// Identities are pure functions of (generator seed, rank): At(rank) derives
// the complete persona on demand, a seed-keyed Feistel permutation makes
// local-parts and phone numbers collision-free by construction, and RankOf
// inverts an email back to its rank. Nothing is retained per identity, so a
// 10M-account population costs two cursors, not a resident map.
package identity

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tripwire/internal/xrand"
)

// PasswordClass distinguishes the two password strengths used to classify
// how a breached site stored its passwords (paper §4.1.2).
type PasswordClass int

const (
	// Hard passwords are random alpha-numeric, mixed-case, ten-character
	// strings without special characters (e.g. i5Nss87yf0). They are
	// designed to resist offline dictionary and brute-force attacks.
	Hard PasswordClass = iota
	// Easy passwords are eight-character strings: a single seven-character
	// dictionary word, first letter capitalized, followed by one digit
	// (e.g. Website1). They are deliberately trivial to crack.
	Easy
)

// String returns "hard" or "easy".
func (c PasswordClass) String() string {
	switch c {
	case Hard:
		return "hard"
	case Easy:
		return "easy"
	default:
		return fmt.Sprintf("PasswordClass(%d)", int(c))
	}
}

// Identity is a complete fictitious persona.
type Identity struct {
	ID        int // the identity's rank: even = Hard, odd = Easy
	FirstName string
	LastName  string
	Username  string // first 14 chars of the email local-part
	LocalPart string // adjective+noun+4 digits, e.g. ArguableGem8317
	Email     string // LocalPart@provider-domain
	Password  string
	Class     PasswordClass

	Street   string
	City     string
	State    string
	Zip      string
	Phone    string // unique US number under our control
	Birthday time.Time
	Employer string
}

// FullName returns "First Last".
func (id *Identity) FullName() string { return id.FirstName + " " + id.LastName }

// Rank-space layout. A rank's low bit is its password class (even = Hard,
// odd = Easy), so both class cursors draw from one interleaved space and
// RankFor/ClassOf are trivial bit operations.
//
// localSpace is the full adjective×noun×4-digit local-part universe; with
// the stock wordlists that is 76·75·10000 = 57M distinct local-parts, so
// ranks are collision-free well past the 10M-account target. phoneSpace is
// the NANP-shaped +1-[2-9]xx-555-dddd universe (800 area codes × 10000
// line numbers): phone numbers are unique for the first 8M ranks and reuse
// the permuted sequence beyond that (the paper's "no site saw the same
// phone twice" property holds per registration batch either way).
const (
	digitsPerPair = 10000
	phoneSpace    = 800 * 10000
)

// Derivation streams under xrand.Mix(seed, rank, stream).
const (
	streamLocalPerm int64 = 0x1d1 // Feistel keys for the local-part permutation
	streamPhonePerm int64 = 0x1d2 // Feistel keys for the phone permutation
	streamPassword  int64 = 0x1d3 // per-rank password RNG
	streamFields    int64 = 0x1d4 // per-rank persona-field RNG
)

// Generator produces identities deterministically from a seed. Every
// identity is a pure function of (seed, rank): New/Batch just advance a
// per-class cursor and call At, so no two identities from one Generator
// share a local-part, phone number, or email — by permutation, not by a
// resident uniqueness set. All methods are safe for concurrent use.
type Generator struct {
	domain    string
	seed      int64
	localPerm feistel
	phonePerm feistel
	cursors   [2]atomic.Int64 // allocated per-class indices
}

// NewGenerator returns a Generator emitting addresses @domain, seeded for
// reproducibility.
func NewGenerator(domain string, seed int64) *Generator {
	return &Generator{
		domain:    domain,
		seed:      seed,
		localPerm: newFeistel(uint64(len(adjectives)*len(nouns)*digitsPerPair), seed, streamLocalPerm),
		phonePerm: newFeistel(phoneSpace, seed, streamPhonePerm),
	}
}

// Domain returns the email domain identities are generated under.
func (g *Generator) Domain() string { return g.domain }

// RankFor maps a per-class index to the identity's global rank.
func RankFor(class PasswordClass, idx int64) int64 { return idx<<1 | int64(class) }

// ClassOf returns the password class encoded in a rank.
func ClassOf(rank int64) PasswordClass { return PasswordClass(rank & 1) }

// IndexOf returns the per-class index encoded in a rank.
func IndexOf(rank int64) int64 { return rank >> 1 }

// Reserve allocates n consecutive per-class indices and returns the first,
// so callers can provision a block of ranks without materializing any of
// them: identity i of the block is At(RankFor(class, from+i)).
func (g *Generator) Reserve(class PasswordClass, n int) (from int64) {
	return g.cursors[class].Add(int64(n)) - int64(n)
}

// Allocated returns how many per-class indices have been handed out.
func (g *Generator) Allocated(class PasswordClass) int64 { return g.cursors[class].Load() }

// New generates the next identity with a password of the given class.
func (g *Generator) New(class PasswordClass) *Identity {
	return g.At(RankFor(class, g.Reserve(class, 1)))
}

// Batch generates n identities of the given class.
func (g *Generator) Batch(n int, class PasswordClass) []*Identity {
	out := make([]*Identity, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.New(class))
	}
	return out
}

// At derives the identity at rank — a pure function of (seed, rank),
// independent of allocation order, so lazy materialization and eager
// provisioning see byte-identical personas. The ledger re-derives every
// identity it hands out, returned ones included, so the fields are
// formatted into stack buffers rather than through fmt.
func (g *Generator) At(rank int64) *Identity {
	class := ClassOf(rank)
	var buf [64]byte
	lp := g.appendLocalPart(buf[:0], rank)
	local := string(lp)
	username := local
	if len(username) > 14 {
		username = username[:14]
	}
	for i, c := range lp { // the local-part is ASCII
		if 'A' <= c && c <= 'Z' {
			lp[i] = c + ('a' - 'A')
		}
	}
	email := string(append(append(lp, '@'), g.domain...))
	rng := xrand.New(xrand.Mix(g.seed, rank, streamPassword))
	var password string
	if class == Hard {
		password = HardPassword(rng)
	} else {
		password = EasyPassword(rng)
	}
	// Reseeding restarts the generator on the persona-field stream exactly
	// as a fresh one would; the fields draw in declaration order.
	rng.Seed(xrand.Mix(g.seed, rank, streamFields))
	firstName := pick(rng, firstNames)
	lastName := pick(rng, lastNames)
	street := strconv.AppendInt(buf[:0], int64(1+rng.Intn(9899)), 10)
	street = append(append(street, ' '), pick(rng, streetNames)...)
	street = append(append(street, ' '), pick(rng, streetSuffixes)...)
	return &Identity{
		ID:        int(rank),
		FirstName: firstName,
		LastName:  lastName,
		Username:  username,
		LocalPart: local,
		Email:     email,
		Password:  password,
		Class:     class,
		Street:    string(street),
		City:      pick(rng, cities),
		State:     pick(rng, states),
		Zip:       strconv.Itoa(10000 + rng.Intn(89999)), // always five digits
		Phone:     g.phoneAt(rank),
		Birthday:  birthday(rng),
		Employer:  pick(rng, employers),
	}
}

// appendLocalPart appends the rank's adjective+noun+4-digit local-part.
func (g *Generator) appendLocalPart(b []byte, rank int64) []byte {
	idx := g.localPerm.apply(uint64(rank) % g.localPerm.size)
	pair := idx / digitsPerPair
	b = append(b, adjectives[pair/uint64(len(nouns))]...)
	b = append(b, nouns[pair%uint64(len(nouns))]...)
	return appendDigits(b, idx%digitsPerPair, 4)
}

func (g *Generator) phoneAt(rank int64) string {
	idx := g.phonePerm.apply(uint64(rank) % phoneSpace)
	// NANP-shaped numbers in the fictional 555 exchange space:
	// +1-[2-9]xx-555-dddd.
	var buf [16]byte
	b := appendDigits(append(buf[:0], "+1-"...), 200+idx/10000, 3)
	return string(appendDigits(append(b, "-555-"...), idx%10000, 4))
}

// appendDigits appends v as exactly width decimal digits, zero-padded on
// the left; v must be below 10^width.
func appendDigits(b []byte, v uint64, width int) []byte {
	for i := 0; i < width; i++ {
		b = append(b, '0')
	}
	for i := len(b) - 1; v > 0; i-- {
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return b
}

// RankOf inverts an email address under the generator's domain back to its
// identity rank: parse the local-part into its permuted index, then run the
// Feistel permutation backwards. It is the account store's email→rank
// index, costing O(1) time and no resident state. ok is false for
// addresses outside the domain or not of the adjective+noun+4-digit shape.
// Callers decide coverage (whether the rank has been allocated) themselves.
func (g *Generator) RankOf(email string) (rank int64, ok bool) {
	local, ok := strings.CutSuffix(email, "@"+g.domain)
	if !ok || len(local) < 5 {
		return 0, false
	}
	var digits uint64
	for i := len(local) - 4; i < len(local); i++ {
		c := local[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		digits = digits*10 + uint64(c-'0')
	}
	pair, ok := pairIndexOf(local[:len(local)-4])
	if !ok {
		return 0, false
	}
	return int64(g.localPerm.invert(pair*digitsPerPair + digits)), true
}

// pairIndex maps the lower-cased adjective+noun concatenation to its pair
// index. Built once; TestPairConcatUnambiguous pins that no two (adjective,
// noun) pairs concatenate to the same string, which is what makes RankOf a
// true inverse.
var pairIndex = func() map[string]uint64 {
	m := make(map[string]uint64, len(adjectives)*len(nouns))
	for ai, adj := range adjectives {
		for ni, noun := range nouns {
			m[strings.ToLower(adj+noun)] = uint64(ai*len(nouns) + ni)
		}
	}
	return m
}()

func pairIndexOf(lowerPair string) (uint64, bool) {
	idx, ok := pairIndex[lowerPair]
	return idx, ok
}

func birthday(rng *rand.Rand) time.Time {
	year := 1955 + rng.Intn(40)
	month := time.Month(1 + rng.Intn(12))
	day := 1 + rng.Intn(28)
	return time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
}

const (
	hardAlphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	// HardLength is the hard-password length: "a balance between a desire
	// for long, complicated passwords, and the need to support websites
	// with short maximum password lengths" (paper §4.1.2).
	HardLength = 10
)

// HardPassword returns a random alpha-numeric mixed-case ten-character
// password without special characters.
func HardPassword(rng *rand.Rand) string {
	var b strings.Builder
	b.Grow(HardLength)
	for i := 0; i < HardLength; i++ {
		b.WriteByte(hardAlphabet[rng.Intn(len(hardAlphabet))])
	}
	return b.String()
}

// EasyPassword returns a seven-character dictionary word with its first
// letter capitalized followed by a single digit: eight characters total,
// deliberately crackable by a dictionary attack.
func EasyPassword(rng *rand.Rand) string {
	w := pick(rng, easyWords)
	return strings.ToUpper(w[:1]) + w[1:] + string(rune('0'+rng.Intn(10)))
}

// IsEasyShaped reports whether p matches the easy-password shape:
// capitalized seven-letter word plus one trailing digit. Attacker-side
// dictionary crackers in the simulation use the same predicate, so a
// "cracked" password is exactly one an attacker's wordlist would find.
func IsEasyShaped(p string) bool {
	if len(p) != 8 {
		return false
	}
	if p[0] < 'A' || p[0] > 'Z' {
		return false
	}
	for i := 1; i < 7; i++ {
		if p[i] < 'a' || p[i] > 'z' {
			return false
		}
	}
	return p[7] >= '0' && p[7] <= '9'
}

// DictionaryWords returns a copy of the seven-letter word list underlying
// easy passwords. The attacker simulation uses the same list as its cracking
// dictionary, so "a dictionary attack recovers easy passwords but not hard
// ones" holds by actual computation (hashing every Word+digit candidate),
// not by fiat.
func DictionaryWords() []string {
	out := make([]string, len(easyWords))
	copy(out, easyWords)
	return out
}

func pick(rng *rand.Rand, list []string) string { return list[rng.Intn(len(list))] }
