package imap

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"tripwire/internal/memconn"
)

// imapDialogue reaches every branch of the server's command handler: the
// greeting, CAPABILITY, malformed and short commands, each LOGIN outcome,
// SELECT and FETCH before and after login, FETCH with literals and on an
// empty box, NOOP, an unknown verb and LOGOUT.
var imapDialogue = []string{
	"a1 CAPABILITY",
	"garbage",
	"a2 LOGIN onlyuser",
	"a3 SELECT INBOX",
	"a4 FETCH 1 (BODY[])",
	`a5 LOGIN "wrong@mail.test" "nope"`,
	`a6 LOGIN "t@mail.test" "pw"`,
	`a7 LOGIN "f@mail.test" "pw"`,
	`a8 LOGIN "empty@mail.test" "pw"`,
	"a9 SELECT INBOX",
	"a10 FETCH 1:3 (BODY[])",
	`a11 LOGIN "full@mail.test" "pass word"`,
	"a12 SELECT Junk",
	"a13 SELECT INBOX",
	"a14 FETCH x (BODY[])",
	"a15 FETCH 1:2 (BODY[])",
	"a16 noop",
	"a17 FROBNICATE",
	"a18 LOGOUT",
}

var dialogueRemote = netip.MustParseAddr("45.67.89.10")

func dialogueBackend() *memBackend {
	b := newMemBackend()
	b.password["t@mail.test"] = "pw"
	b.throttle["t@mail.test"] = true
	b.password["f@mail.test"] = "pw"
	b.frozen["f@mail.test"] = true
	b.password["empty@mail.test"] = "pw"
	b.password["full@mail.test"] = "pass word"
	b.boxes["full@mail.test"] = []Message{
		{From: "noreply@site.test", Subject: "Verify", Body: "click http://x.test/verify?t=1"},
		{From: "deals@shop.test", Subject: "Sale", Body: "multi\r\nline\r\nbody"},
	}
	return b
}

// overServeConn runs lines through ServeConn on a net.Pipe and returns
// every byte the server sent.
func overServeConn(t *testing.T, b Backend, lines []string) []byte {
	t.Helper()
	cli, srvConn := net.Pipe()
	defer cli.Close()
	served := make(chan error, 1)
	go func() {
		served <- NewServer(b).ServeConn(srvConn, dialogueRemote)
		srvConn.Close()
	}()
	got := make(chan []byte, 1)
	go func() {
		all, _ := io.ReadAll(cli)
		got <- all
	}()
	for _, line := range lines {
		if _, err := cli.Write([]byte(line + "\r\n")); err != nil {
			t.Fatalf("write %q: %v", line, err)
		}
	}
	out := <-got
	if err := <-served; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	return out
}

// inline runs lines through a ServerSession on a memconn.Conn, in one Write
// per line or all in one Write, and returns every byte the server sent.
func inline(t *testing.T, b Backend, lines []string, oneWrite bool) []byte {
	t.Helper()
	var c memconn.Conn
	var ss ServerSession
	ss.Reset(NewServer(b), dialogueRemote)
	c.Reset(&ss)
	var script []byte
	for _, line := range lines {
		script = append(script, line+"\r\n"...)
		if !oneWrite {
			if _, err := c.Write([]byte(line + "\r\n")); err != nil {
				t.Fatalf("write %q: %v", line, err)
			}
		}
	}
	if oneWrite {
		if _, err := c.Write(script); err != nil {
			t.Fatalf("write script: %v", err)
		}
	}
	out, err := io.ReadAll(&c)
	if err != nil {
		t.Fatalf("draining replies: %v", err)
	}
	return out
}

// TestInlineMatchesServeConn: the inline session sends byte for byte what
// ServeConn sends over a real connection, and the backend sees the same
// Login calls and logouts.
func TestInlineMatchesServeConn(t *testing.T) {
	wantB := dialogueBackend()
	want := overServeConn(t, wantB, imapDialogue)
	if !bytes.HasPrefix(want, []byte("* OK ")) || !bytes.HasSuffix(want, []byte("a18 OK LOGOUT completed\r\n")) {
		t.Fatalf("ServeConn transcript = %q", want)
	}
	if !bytes.Contains(want, []byte("{57}\r\nFrom: deals@shop.test\r\nSubject: Sale\r\n\r\nmulti\r\nline\r\nbody)\r\n")) {
		t.Fatalf("FETCH literal missing from %q", want)
	}
	for _, oneWrite := range []bool{false, true} {
		b := dialogueBackend()
		if got := inline(t, b, imapDialogue, oneWrite); !bytes.Equal(got, want) {
			t.Errorf("oneWrite=%v: inline transcript differs\n got %q\nwant %q", oneWrite, got, want)
		}
		if !slices.Equal(b.calls, wantB.calls) || b.logouts != wantB.logouts {
			t.Errorf("oneWrite=%v: backend saw logins %q and %d logouts, want %q and %d",
				oneWrite, b.calls, b.logouts, wantB.calls, wantB.logouts)
		}
	}
	if len(wantB.calls) != 5 || wantB.logouts != 1 {
		t.Fatalf("ServeConn backend saw logins %q and %d logouts", wantB.calls, wantB.logouts)
	}
}

// TestInlineLogsOutOnce: the backend session logs out exactly once whether
// the client sends LOGOUT, drops the conn, or the conn is reused while the
// session is still open; and a reused conn carries nothing from the last
// session.
func TestInlineLogsOutOnce(t *testing.T) {
	b := dialogueBackend()
	srv := NewServer(b)
	var c memconn.Conn
	var ss ServerSession
	var cli Client
	start := func() {
		t.Helper()
		ss.Reset(srv, dialogueRemote)
		c.Reset(&ss)
		if err := cli.Reset(&c); err != nil {
			t.Fatal(err)
		}
		if err := cli.Login("full@mail.test", "pass word"); err != nil {
			t.Fatal(err)
		}
	}

	start()
	if err := cli.Logout(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if b.logouts != 1 {
		t.Fatalf("after LOGOUT: %d logouts, want 1", b.logouts)
	}

	start()
	c.Close()
	c.Close()
	if b.logouts != 2 {
		t.Fatalf("after a dropped conn: %d logouts, want 2", b.logouts)
	}

	// Leave a selected session open with an unread reply and a partial
	// command, then reuse the conn.
	start()
	if _, err := cli.Select("INBOX"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("a9 NOOP\r\na10 FET")); err != nil {
		t.Fatal(err)
	}
	ss.Reset(srv, dialogueRemote)
	c.Reset(&ss)
	if b.logouts != 3 {
		t.Fatalf("after Reset of an open session: %d logouts, want 3", b.logouts)
	}
	if _, err := c.Write([]byte("a1 FETCH 1 (BODY[])\r\n")); err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(&c)
	if want := "* OK tripwire-sim IMAP4rev1 ready\r\na1 NO no mailbox selected\r\n"; string(got) != want {
		t.Fatalf("reused conn read %q, want %q", got, want)
	}
}

// credentialBackend records the credentials of every Login it sees and
// refuses them all.
type credentialBackend struct{ users, passes []string }

func (b *credentialBackend) Login(user, pass string, _ netip.Addr) (Session, error) {
	b.users, b.passes = append(b.users, user), append(b.passes, pass)
	return nil, ErrAuthFailed
}

// FuzzLoginCredentials: any user and password without CR, LF or NUL
// reaches Backend.Login byte for byte, whatever quotes, backslashes, spaces
// or other bytes they hold; a Login whose credentials hold one fails
// before anything reaches the server.
func FuzzLoginCredentials(f *testing.F) {
	f.Add("gem@mail.test", "Website1")
	f.Add(`"odd\user"`, `has"quote back\slash`)
	f.Add(" lead", "trail \\")
	f.Add("tab\tuser", `\"`)
	f.Add("", "")
	f.Add("a\rb", "pw")
	f.Add("user", "p\x00w\n")
	f.Fuzz(func(t *testing.T, user, pass string) {
		b := new(credentialBackend)
		var c memconn.Conn
		var ss ServerSession
		ss.Reset(NewServer(b), dialogueRemote)
		c.Reset(&ss)
		var cli Client
		if err := cli.Reset(&c); err != nil {
			t.Fatal(err)
		}
		err := cli.Login(user, pass)
		if strings.ContainsAny(user+pass, "\r\n\x00") {
			if err == nil || len(b.users) != 0 {
				t.Fatalf("Login(%q, %q) = %v and reached the backend %d times", user, pass, err, len(b.users))
			}
			return
		}
		if !errors.Is(err, ErrAuthFailed) || len(b.users) != 1 || b.users[0] != user || b.passes[0] != pass {
			t.Fatalf("Login(%q, %q) = %v; backend saw users %q, passwords %q", user, pass, err, b.users, b.passes)
		}
	})
}
