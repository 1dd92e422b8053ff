package webgen

import (
	"crypto/md5"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// Account is one stored user record at a site. The stored credential is
// encoded per the site's StoragePolicy; no plaintext is retained unless the
// policy itself is plaintext, so a breach dump exposes exactly what a real
// dump would.
type Account struct {
	Username string
	Email    string
	Stored   string // policy-encoded password
	Salt     string // non-empty only for StoreStrongHash
	Created  time.Time
	Verified bool
}

// Store is a site's account database.
type Store struct {
	mu       sync.Mutex
	policy   StoragePolicy
	accounts map[string]*Account // key: lower-case username
	byToken  map[string]string   // verification token -> username
}

// NewStore returns an empty store with the given policy.
func NewStore(policy StoragePolicy) *Store {
	return &Store{
		policy:   policy,
		accounts: make(map[string]*Account),
		byToken:  make(map[string]string),
	}
}

// Policy returns the store's password-storage policy.
func (st *Store) Policy() StoragePolicy { return st.policy }

// reversibleKey is the fixed key of the "easily-reversed" homebrew scheme
// (StoreReversible). It is deliberately public: that is the point.
const reversibleKey = "s3cr3t-k3y"

// EncodePassword encodes pw under policy with salt (used only by
// StoreStrongHash).
func EncodePassword(policy StoragePolicy, pw, salt string) string {
	switch policy {
	case StorePlaintext:
		return pw
	case StoreReversible:
		return hex.EncodeToString(xorKey([]byte(pw), reversibleKey))
	case StoreWeakHash:
		sum := md5.Sum([]byte(pw))
		return hex.EncodeToString(sum[:])
	case StoreStrongHash:
		sum := StrongDigest(pw, salt)
		return hex.EncodeToString(sum[:])
	default:
		panic(fmt.Sprintf("webgen: unknown storage policy %v", policy))
	}
}

// DecodeReversible inverts the StoreReversible encoding; it is what an
// attacker who has read the site's source does with a dump.
func DecodeReversible(stored string) (string, bool) {
	raw, err := hex.DecodeString(stored)
	if err != nil {
		return "", false
	}
	return string(xorKey(raw, reversibleKey)), true
}

func xorKey(b []byte, key string) []byte {
	out := make([]byte, len(b))
	for i := range b {
		out[i] = b[i] ^ key[i%len(key)]
	}
	return out
}

// StrongHashRounds is the iteration count of the salted hash. Small enough
// to keep simulations fast, large enough that the dictionary bench shows
// the expected plaintext-vs-hashed cost asymmetry.
const StrongHashRounds = 128

// StrongDigest is the raw StoreStrongHash digest of pw under salt:
// SHA-256 over salt+pw, iterated StrongHashRounds times. It does not
// allocate for inputs up to 128 bytes, so a dictionary attack can compare
// digests without building a hex string per candidate.
func StrongDigest(pw, salt string) [sha256.Size]byte {
	var buf [128]byte
	sum := sha256.Sum256(append(append(buf[:0], salt...), pw...))
	for i := 1; i < StrongHashRounds; i++ {
		sum = sha256.Sum256(sum[:])
	}
	return sum
}

// Create adds an account. It fails if the username is taken.
func (st *Store) Create(username, email, password, salt string, now time.Time) (*Account, error) {
	key := strings.ToLower(username)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.accounts[key]; dup {
		return nil, fmt.Errorf("webgen: username %q already registered", username)
	}
	acct := &Account{
		Username: username,
		Email:    email,
		Stored:   EncodePassword(st.policy, password, salt),
		Salt:     salt,
		Created:  now,
	}
	st.accounts[key] = acct
	return acct, nil
}

// Lookup returns the account for username, if any.
func (st *Store) Lookup(username string) (*Account, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	a, ok := st.accounts[strings.ToLower(username)]
	return a, ok
}

// CheckPassword verifies a login attempt against the stored credential.
func (st *Store) CheckPassword(username, password string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	a, ok := st.accounts[strings.ToLower(username)]
	if !ok {
		return false
	}
	return a.Stored == EncodePassword(st.policy, password, a.Salt)
}

// IssueVerifyToken associates a fresh verification token with username.
func (st *Store) IssueVerifyToken(username, token string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.byToken[token] = strings.ToLower(username)
}

// Verify consumes token, marking the matching account verified. It reports
// whether the token was valid.
func (st *Store) Verify(token string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	user, ok := st.byToken[token]
	if !ok {
		return false
	}
	delete(st.byToken, token)
	if a, ok := st.accounts[user]; ok {
		a.Verified = true
		return true
	}
	return false
}

// Len returns the number of accounts.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.accounts)
}

// DumpEntry is one row of a breached account database: exactly the fields
// an attacker obtains.
type DumpEntry struct {
	Username string
	Email    string
	Stored   string
	Salt     string
	Policy   StoragePolicy
}

// Dump returns the full account database as an attacker would exfiltrate
// it. The returned slice is a snapshot ordered by username.
func (st *Store) Dump() []DumpEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]DumpEntry, 0, len(st.accounts))
	for _, a := range st.accounts {
		out = append(out, DumpEntry{
			Username: a.Username,
			Email:    a.Email,
			Stored:   a.Stored,
			Salt:     a.Salt,
			Policy:   st.policy,
		})
	}
	slices.SortStableFunc(out, func(a, b DumpEntry) int { return strings.Compare(a.Username, b.Username) })
	return out
}
