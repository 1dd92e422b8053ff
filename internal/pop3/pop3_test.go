package pop3

import (
	"errors"
	"net"
	"net/netip"
	"strings"
	"testing"

	"tripwire/internal/imap"
)

// fakeBackend implements imap.Backend for protocol tests.
type fakeBackend struct {
	pass    map[string]string
	boxes   map[string][]imap.Message
	calls   []string // every Login call as "user pass remote"
	logouts int
}

func (b *fakeBackend) Login(user, pwd string, remote netip.Addr) (imap.Session, error) {
	b.calls = append(b.calls, user+" "+pwd+" "+remote.String())
	if b.pass[user] != pwd || pwd == "" {
		return nil, imap.ErrAuthFailed
	}
	return &fakeSession{b: b, msgs: b.boxes[user]}, nil
}

type fakeSession struct {
	b    *fakeBackend
	msgs []imap.Message
}

func (s *fakeSession) Select(box string) (int, error) {
	if !strings.EqualFold(box, "INBOX") {
		return 0, errors.New("no such mailbox")
	}
	return len(s.msgs), nil
}

func (s *fakeSession) Fetch(seq int) (imap.Message, error) {
	if seq < 1 || seq > len(s.msgs) {
		return imap.Message{}, errors.New("no such message")
	}
	return s.msgs[seq-1], nil
}

func (s *fakeSession) Logout() error {
	s.b.logouts++
	return nil
}

func dialPOP(t *testing.T, backend imap.Backend) (*Client, func()) {
	t.Helper()
	srv := NewServer(backend)
	cliConn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.ServeConn(srvConn, netip.MustParseAddr("10.9.8.7"))
		srvConn.Close()
	}()
	c, err := Dial(cliConn)
	if err != nil {
		t.Fatal(err)
	}
	return c, func() { cliConn.Close(); <-done }
}

func testBackend() *fakeBackend {
	return &fakeBackend{
		pass: map[string]string{"gem@mail.test": "Website1"},
		boxes: map[string][]imap.Message{
			"gem@mail.test": {
				{From: "a@x.test", Subject: "One", Body: "first body"},
				{From: "b@x.test", Subject: "Two", Body: ".dot-leading\r\nsecond"},
			},
		},
	}
}

func TestAuthStatRetrQuit(t *testing.T) {
	c, cleanup := dialPOP(t, testBackend())
	defer cleanup()
	if err := c.Auth("gem@mail.test", "Website1"); err != nil {
		t.Fatal(err)
	}
	n, err := c.Stat()
	if err != nil || n != 2 {
		t.Fatalf("Stat = %d, %v", n, err)
	}
	raw, err := c.Retr(2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(raw, "Subject: Two") {
		t.Fatalf("RETR missing subject: %q", raw)
	}
	if !strings.Contains(raw, ".dot-leading") {
		t.Fatalf("dot-stuffing broken: %q", raw)
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
}

func TestAuthFailure(t *testing.T) {
	c, cleanup := dialPOP(t, testBackend())
	defer cleanup()
	if err := c.Auth("gem@mail.test", "wrong"); err == nil {
		t.Fatal("wrong password accepted")
	}
	if _, err := c.Stat(); err == nil {
		t.Fatal("STAT allowed without auth")
	}
}

func TestRetrOutOfRange(t *testing.T) {
	c, cleanup := dialPOP(t, testBackend())
	defer cleanup()
	if err := c.Auth("gem@mail.test", "Website1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Retr(99); err == nil {
		t.Fatal("RETR 99 succeeded on a 2-message maildrop")
	}
	// The session survives the error.
	if n, err := c.Stat(); err != nil || n != 2 {
		t.Fatalf("post-error Stat = %d, %v", n, err)
	}
}

func TestPassWithoutUser(t *testing.T) {
	backend := testBackend()
	srv := NewServer(backend)
	cliConn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.ServeConn(srvConn, netip.Addr{}); srvConn.Close() }()
	defer func() { cliConn.Close(); <-done }()

	buf := make([]byte, 256)
	n, _ := cliConn.Read(buf) // greeting
	_ = n
	cliConn.Write([]byte("PASS nope\r\n"))
	n, _ = cliConn.Read(buf)
	if !strings.HasPrefix(string(buf[:n]), "-ERR") {
		t.Fatalf("PASS before USER = %q", buf[:n])
	}
	cliConn.Write([]byte("QUIT\r\n"))
	cliConn.Read(buf)
}
