package pop3

import (
	"bytes"
	"io"
	"net"
	"net/netip"
	"slices"
	"testing"

	"tripwire/internal/imap"
	"tripwire/internal/memconn"
)

// popDialogue reaches every branch of the server's command handler: PASS
// before USER, a failed and a good login, STAT before and after it, LIST,
// RETR of a dot-stuffed body line and out of range, DELE, NOOP, an unknown
// verb and QUIT.
var popDialogue = []string{
	"PASS nope",
	"USER gem@mail.test",
	"PASS wrong",
	"STAT",
	"PASS Website1",
	"stat",
	"LIST",
	"RETR 2",
	"RETR 9",
	"RETR nope",
	"DELE 1",
	"RSET",
	"NOOP",
	"XYZZY",
	"QUIT",
}

var dialogueRemote = netip.MustParseAddr("10.9.8.7")

// overServeConn runs lines through ServeConn on a net.Pipe and returns
// every byte the server sent.
func overServeConn(t *testing.T, b imap.Backend, lines []string) []byte {
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
func inline(t *testing.T, b imap.Backend, lines []string, oneWrite bool) []byte {
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
	wantB := testBackend()
	want := overServeConn(t, wantB, popDialogue)
	if !bytes.HasPrefix(want, []byte("+OK tripwire-sim POP3 ready\r\n-ERR USER first\r\n")) ||
		!bytes.Contains(want, []byte("\r\n\r\n..dot-leading\r\nsecond\r\n.\r\n")) ||
		!bytes.HasSuffix(want, []byte("+OK bye\r\n")) {
		t.Fatalf("ServeConn transcript = %q", want)
	}
	for _, oneWrite := range []bool{false, true} {
		b := testBackend()
		if got := inline(t, b, popDialogue, oneWrite); !bytes.Equal(got, want) {
			t.Errorf("oneWrite=%v: inline transcript differs\n got %q\nwant %q", oneWrite, got, want)
		}
		if !slices.Equal(b.calls, wantB.calls) || b.logouts != wantB.logouts {
			t.Errorf("oneWrite=%v: backend saw logins %q and %d logouts, want %q and %d",
				oneWrite, b.calls, b.logouts, wantB.calls, wantB.logouts)
		}
	}
	if len(wantB.calls) != 2 || wantB.logouts != 1 {
		t.Fatalf("ServeConn backend saw logins %q and %d logouts", wantB.calls, wantB.logouts)
	}
}

// TestInlineLogsOutOnce: the backend session logs out exactly once whether
// the client sends QUIT or drops the conn.
func TestInlineLogsOutOnce(t *testing.T) {
	b := testBackend()
	srv := NewServer(b)
	var c memconn.Conn
	var ss ServerSession
	var cli Client
	for i, quit := range []bool{true, false} {
		ss.Reset(srv, dialogueRemote)
		c.Reset(&ss)
		if err := cli.Reset(&c); err != nil {
			t.Fatal(err)
		}
		if err := cli.Auth("gem@mail.test", "Website1"); err != nil {
			t.Fatal(err)
		}
		if quit {
			if err := cli.Quit(); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		c.Close()
		if b.logouts != i+1 {
			t.Fatalf("quit=%v: %d logouts, want %d", quit, b.logouts, i+1)
		}
	}
}
