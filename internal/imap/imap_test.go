package imap

import (
	"errors"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
)

// memBackend is an in-memory Backend for protocol tests.
type memBackend struct {
	mu       sync.Mutex
	password map[string]string
	boxes    map[string][]Message
	frozen   map[string]bool
	throttle map[string]bool
	logins   []netip.Addr
	calls    []string // every Login call as "user pass remote"
	logouts  int
}

func newMemBackend() *memBackend {
	return &memBackend{
		password: make(map[string]string),
		boxes:    make(map[string][]Message),
		frozen:   make(map[string]bool),
		throttle: make(map[string]bool),
	}
}

func (b *memBackend) Login(user, pass string, remote netip.Addr) (Session, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls = append(b.calls, user+" "+pass+" "+remote.String())
	if b.throttle[user] {
		return nil, ErrThrottled
	}
	if b.frozen[user] {
		return nil, ErrAccountFrozen
	}
	if b.password[user] != pass || pass == "" {
		return nil, ErrAuthFailed
	}
	b.logins = append(b.logins, remote)
	return &memSession{b: b, user: user}, nil
}

type memSession struct {
	b    *memBackend
	user string
}

func (s *memSession) Select(mailbox string) (int, error) {
	if !strings.EqualFold(mailbox, "INBOX") {
		return 0, errors.New("no such mailbox")
	}
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	return len(s.b.boxes[s.user]), nil
}

func (s *memSession) Fetch(seq int) (Message, error) {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	box := s.b.boxes[s.user]
	if seq < 1 || seq > len(box) {
		return Message{}, errors.New("no such message")
	}
	return box[seq-1], nil
}

func (s *memSession) Logout() error {
	s.b.mu.Lock()
	s.b.logouts++
	s.b.mu.Unlock()
	return nil
}

// dial starts a client/server pair over an in-memory pipe.
func dial(t *testing.T, backend Backend, remote netip.Addr) (*Client, func()) {
	t.Helper()
	srv := NewServer(backend)
	cliConn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.ServeConn(srvConn, remote); srvConn.Close() }()
	c, err := Dial(cliConn)
	if err != nil {
		t.Fatal(err)
	}
	return c, func() { cliConn.Close(); <-done }
}

func TestLoginSelectFetchLogout(t *testing.T) {
	b := newMemBackend()
	b.password["gem@mail.test"] = "Website1"
	b.boxes["gem@mail.test"] = []Message{
		{From: "noreply@site.test", Subject: "Verify", Body: "click http://x.test/verify?t=1"},
		{From: "deals@shop.test", Subject: "Sale\r\nnow", Body: "multi\r\nline\r\nbody"},
	}
	remote := netip.MustParseAddr("45.67.89.10")
	c, cleanup := dial(t, b, remote)
	defer cleanup()

	if err := c.Login("gem@mail.test", "Website1"); err != nil {
		t.Fatal(err)
	}
	n, err := c.Select("INBOX")
	if err != nil || n != 2 {
		t.Fatalf("Select = %d, %v", n, err)
	}
	msgs, err := c.Fetch(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("fetched %d messages", len(msgs))
	}
	if msgs[0].Subject != "Verify" || !strings.Contains(msgs[0].Body, "verify?t=1") {
		t.Fatalf("msg[0] = %+v", msgs[0])
	}
	if !strings.Contains(msgs[1].Body, "multi") {
		t.Fatalf("msg[1] body = %q", msgs[1].Body)
	}
	if err := c.Logout(); err != nil {
		t.Fatal(err)
	}
	if len(b.logins) != 1 || b.logins[0] != remote {
		t.Fatalf("backend saw logins %v, want [%v]", b.logins, remote)
	}
}

func TestLoginWrongPassword(t *testing.T) {
	b := newMemBackend()
	b.password["u@mail.test"] = "right"
	c, cleanup := dial(t, b, netip.MustParseAddr("1.2.3.4"))
	defer cleanup()
	if err := c.Login("u@mail.test", "wrong"); err != ErrAuthFailed {
		t.Fatalf("err = %v, want ErrAuthFailed", err)
	}
}

func TestLoginFrozenAndThrottled(t *testing.T) {
	b := newMemBackend()
	b.password["f@mail.test"] = "pw"
	b.frozen["f@mail.test"] = true
	b.password["t@mail.test"] = "pw"
	b.throttle["t@mail.test"] = true

	c, cleanup := dial(t, b, netip.MustParseAddr("1.2.3.4"))
	defer cleanup()
	if err := c.Login("f@mail.test", "pw"); err != ErrAccountFrozen {
		t.Fatalf("frozen err = %v", err)
	}
	if err := c.Login("t@mail.test", "pw"); err != ErrThrottled {
		t.Fatalf("throttled err = %v", err)
	}
}

func TestSelectBeforeLogin(t *testing.T) {
	c, cleanup := dial(t, newMemBackend(), netip.MustParseAddr("1.2.3.4"))
	defer cleanup()
	if _, err := c.Select("INBOX"); err == nil {
		t.Fatal("SELECT before LOGIN allowed")
	}
}

func TestFetchEmptyMailbox(t *testing.T) {
	b := newMemBackend()
	b.password["e@mail.test"] = "pw"
	c, cleanup := dial(t, b, netip.MustParseAddr("1.2.3.4"))
	defer cleanup()
	if err := c.Login("e@mail.test", "pw"); err != nil {
		t.Fatal(err)
	}
	n, err := c.Select("INBOX")
	if err != nil || n != 0 {
		t.Fatalf("Select empty = %d, %v", n, err)
	}
	msgs, err := c.Fetch(1, 10)
	if err != nil || len(msgs) != 0 {
		t.Fatalf("Fetch on empty = %v, %v", msgs, err)
	}
}

// scriptedConn replays a fixed server script and discards what the client
// writes.
type scriptedConn struct {
	net.Conn
	script *strings.Reader
}

func (c scriptedConn) Read(p []byte) (int, error)  { return c.script.Read(p) }
func (c scriptedConn) Write(p []byte) (int, error) { return len(p), nil }

// TestFetchFailureReported: a tagged NO to FETCH is an error, even when the
// status text happens to contain "OK".
func TestFetchFailureReported(t *testing.T) {
	c, err := Dial(scriptedConn{script: strings.NewReader("* OK ready\r\n" +
		"a001 OK LOGIN completed\r\n" +
		"* 1 EXISTS\r\na002 OK [READ-ONLY] SELECT completed\r\n" +
		"a003 NO LOOKUP failed\r\n")})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Login("u@mail.test", "pw"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Select("INBOX"); err != nil || n != 1 {
		t.Fatalf("Select = %d, %v", n, err)
	}
	if msgs, err := c.Fetch(1, 1); err == nil {
		t.Fatalf("FETCH answered NO returned %v and no error", msgs)
	}
}

func TestQuotedCredentials(t *testing.T) {
	b := newMemBackend()
	b.password["q@mail.test"] = "pass with space"
	c, cleanup := dial(t, b, netip.MustParseAddr("1.2.3.4"))
	defer cleanup()
	if err := c.Login("q@mail.test", "pass with space"); err != nil {
		t.Fatalf("quoted password login failed: %v", err)
	}
}

func TestParseSeqSet(t *testing.T) {
	cases := []struct {
		in     string
		lo, hi int
		ok     bool
	}{
		{"1", 1, 1, true},
		{"2:5", 2, 5, true},
		{"3:*", 3, 1 << 30, true},
		{"0", 0, 0, false},
		{"5:2", 0, 0, false},
		{"x", 0, 0, false},
	}
	for _, tc := range cases {
		lo, hi, ok := parseSeqSet([]byte(tc.in))
		if ok != tc.ok || (ok && (lo != tc.lo || hi != tc.hi)) {
			t.Errorf("parseSeqSet(%q) = %d,%d,%v; want %d,%d,%v", tc.in, lo, hi, ok, tc.lo, tc.hi, tc.ok)
		}
	}
}

func TestSplitQuoted(t *testing.T) {
	got := splitQuoted([]byte(`a1 LOGIN "user name" "pass word"`), nil)
	want := []string{"a1", "LOGIN", `"user name"`, `"pass word"`}
	if len(got) != len(want) {
		t.Fatalf("splitQuoted = %q", got)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("splitQuoted[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
