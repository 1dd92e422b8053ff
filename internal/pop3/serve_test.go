package pop3

import (
	"errors"
	"net"
	"net/netip"
	"strings"
	"testing"

	"tripwire/internal/imap"
)

// TestServeOverTCP drives a full POP3 session over a loopback socket.
func TestServeOverTCP(t *testing.T) {
	b := testBackend()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	defer ln.Close()
	go NewServer(b).Serve(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Auth("gem@mail.test", "Website1"); err != nil {
		t.Fatal(err)
	}
	n, err := c.Stat()
	if err != nil || n != 2 {
		t.Fatalf("Stat = %d, %v", n, err)
	}
	raw, err := c.Retr(1)
	if err != nil || !strings.Contains(raw, "Subject: One") {
		t.Fatalf("Retr = %q, %v", raw, err)
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
}

// TestServerCommandSurface exercises LIST, DELE, RSET, NOOP and error
// replies over a pipe.
func TestServerCommandSurface(t *testing.T) {
	c, cleanup := dialPOP(t, testBackend())
	defer cleanup()
	if err := c.Auth("gem@mail.test", "Website1"); err != nil {
		t.Fatal(err)
	}
	// LIST: multiline, one row per message, dot-terminated.
	if _, err := c.cmd("LIST", ""); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		line, err := c.r.ReadLine()
		if err != nil {
			t.Fatal(err)
		}
		if string(line) == "." {
			break
		}
		rows++
	}
	if rows != 2 {
		t.Fatalf("LIST rows = %d", rows)
	}
	for _, verb := range []string{"DELE 1", "RSET", "NOOP"} {
		if _, err := c.cmd(verb, ""); err != nil {
			t.Fatalf("%s: %v", verb, err)
		}
	}
	if _, err := c.cmd("XYZZY", ""); err == nil {
		t.Fatal("unknown command accepted")
	}
	if _, err := c.cmd("RETR nope", ""); err == nil {
		t.Fatal("non-numeric RETR accepted")
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
}

// TestBackendSelectFailure covers maildrops whose INBOX cannot open: the
// POP3 session still authenticates and reports an empty maildrop.
func TestBackendSelectFailure(t *testing.T) {
	c, cleanup := dialPOP(t, failingBackend{})
	defer cleanup()
	if err := c.Auth("x@mail.test", "pw"); err != nil {
		t.Fatalf("auth should succeed: %v", err)
	}
	n, err := c.Stat()
	if err != nil || n != 0 {
		t.Fatalf("Stat = %d, %v", n, err)
	}
}

// failingBackend authenticates anyone but cannot open any mailbox.
type failingBackend struct{}

func (failingBackend) Login(user, pass string, _ netip.Addr) (imap.Session, error) {
	return failingSession{}, nil
}

type failingSession struct{}

func (failingSession) Select(string) (int, error)      { return 0, errors.New("mailbox corrupt") }
func (failingSession) Fetch(int) (imap.Message, error) { return imap.Message{}, errors.New("no") }
func (failingSession) Logout() error                   { return nil }
