package mailserv

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"tripwire/internal/memconn"
)

// smtpDialogue reaches every branch of the server's command handler: NOOP,
// RCPT and DATA out of order, EHLO's multi-line reply, a malformed MAIL,
// a message over a 64-byte MaxMessageBytes, RCPT after the refusal cleared
// the envelope, a message with dot-stuffed lines to two recipients, RSET,
// HELO, an unknown verb and QUIT.
var smtpDialogue = []string{
	"NOOP",
	"RCPT TO:<early@relay.test>",
	"DATA",
	"EHLO client.test",
	"MAIL TO:<oops@site.test>",
	"MAIL FROM:<a@site.test>",
	"RCPT TO:<b@relay.test>",
	"DATA",
	"From: a@site.test",
	"Subject: big",
	"",
	strings.Repeat("x", 80),
	"..stuffed",
	".",
	"RCPT TO:<b@relay.test>",
	"mail from:<a@site.test>",
	"RCPT TO:<>",
	"RCPT TO:<b@relay.test>",
	"RCPT TO:<C@Relay.test>",
	"DATA",
	"From: a@site.test",
	"Subject: small",
	"",
	"..leading dot",
	".x",
	"...",
	".",
	"RSET",
	"HELO client.test",
	"FROBNICATE",
	"QUIT",
}

// dialogueServer returns an SMTP server with a 64-byte message cap over a
// fresh store whose clock is fixed.
func dialogueServer() *SMTPServer {
	store := NewServer()
	store.Now = func() time.Time { return time.Date(2015, 3, 1, 12, 0, 0, 0, time.UTC) }
	srv := NewSMTPServer(store)
	srv.MaxMessageBytes = 64
	return srv
}

// stored lists the store's messages, oldest first, one string each.
func stored(s *Server) []string {
	var out []string
	for _, m := range s.All() {
		out = append(out, fmt.Sprintf("%q %q %q %q %v", m.From, m.To, m.Subject, m.Body, m.Received))
	}
	return out
}

// overServeConn writes script through ServeConn on a net.Pipe, one write
// per element, reading the replies concurrently, and returns every byte the
// server sent once it has returned.
func overServeConn(t testing.TB, srv *SMTPServer, script []string) []byte {
	t.Helper()
	cli, srvConn := net.Pipe()
	defer cli.Close()
	served := make(chan error, 1)
	go func() {
		served <- srv.ServeConn(srvConn)
		srvConn.Close()
	}()
	got := make(chan []byte, 1)
	go func() {
		all, _ := io.ReadAll(cli)
		got <- all
	}()
	for _, s := range script {
		// A write after QUIT fails once the server has closed its end.
		if _, err := cli.Write([]byte(s)); err != nil {
			break
		}
	}
	out := <-got
	if err := <-served; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	return out
}

// inline writes script through an SMTPSession on a memconn.Conn, one write
// per element, and returns every byte the server sent.
func inline(t testing.TB, srv *SMTPServer, script []string) []byte {
	t.Helper()
	var c memconn.Conn
	var ss SMTPSession
	ss.Reset(srv)
	c.Reset(&ss)
	for _, s := range script {
		if _, err := c.Write([]byte(s)); err != nil {
			break
		}
	}
	out, err := io.ReadAll(&c)
	if err != nil {
		t.Fatalf("draining replies: %v", err)
	}
	return out
}

// lines terminates each line with CRLF.
func lines(ls []string) []string {
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = l + "\r\n"
	}
	return out
}

// TestInlineMatchesServeConn: the inline session sends byte for byte what
// ServeConn sends over a real connection, whether the client writes line
// by line or all at once, and the store receives the same messages.
func TestInlineMatchesServeConn(t *testing.T) {
	wantSrv := dialogueServer()
	want := overServeConn(t, wantSrv, lines(smtpDialogue))
	for _, reply := range []string{
		"220 mail.tripwire.test ESMTP tripwire-mailserv\r\n250 OK\r\n503 need MAIL before RCPT\r\n503 need RCPT before DATA\r\n",
		"250-mail.tripwire.test\r\n250 SIZE 64\r\n501 syntax: MAIL FROM:<address>\r\n",
		"354 end data with <CRLF>.<CRLF>\r\n552 message too large\r\n503 need MAIL before RCPT\r\n",
		"501 syntax: RCPT TO:<address>\r\n",
		"250 OK: queued\r\n250 OK\r\n250 mail.tripwire.test\r\n502 command not implemented\r\n221 bye\r\n",
	} {
		if !bytes.Contains(want, []byte(reply)) {
			t.Fatalf("ServeConn transcript %q lacks %q", want, reply)
		}
	}
	wantMsgs := stored(wantSrv.Store)
	if len(wantMsgs) != 2 || !strings.Contains(wantMsgs[1], `"c@relay.test" "small" ".leading dot\r\nx\r\n..\r\n"`) {
		t.Fatalf("ServeConn stored %q", wantMsgs)
	}
	for _, oneWrite := range []bool{false, true} {
		script := lines(smtpDialogue)
		if oneWrite {
			script = []string{strings.Join(script, "")}
		}
		srv := dialogueServer()
		if got := inline(t, srv, script); !bytes.Equal(got, want) {
			t.Errorf("oneWrite=%v: inline transcript differs\n got %q\nwant %q", oneWrite, got, want)
		}
		if got := stored(srv.Store); !slices.Equal(got, wantMsgs) {
			t.Errorf("oneWrite=%v: inline stored %q, want %q", oneWrite, got, wantMsgs)
		}
	}
}

// TestDataTransparency: in message text the line "." ends the message, and
// every other line that begins with a period loses that period (RFC 5321
// §4.5.2), whether or not a second period follows it.
func TestDataTransparency(t *testing.T) {
	script := lines([]string{
		"MAIL FROM:<a@site.test>", "RCPT TO:<b@relay.test>", "DATA",
		"Subject: dots", "", "..", ".x", "..x", "x.", ".",
		"NOOP", "QUIT",
	})
	for _, viaServeConn := range []bool{false, true} {
		srv := dialogueServer()
		var got []byte
		if viaServeConn {
			got = overServeConn(t, srv, script)
		} else {
			got = inline(t, srv, script)
		}
		if !bytes.HasSuffix(got, []byte("354 end data with <CRLF>.<CRLF>\r\n250 OK: queued\r\n250 OK\r\n221 bye\r\n")) {
			t.Errorf("ServeConn=%v: transcript %q", viaServeConn, got)
		}
		msgs := srv.Store.All()
		if len(msgs) != 1 || msgs[0].Body != ".\r\nx\r\n.x\r\nx.\r\n" {
			t.Errorf("ServeConn=%v: stored %q", viaServeConn, stored(srv.Store))
		}
	}
}

// dialSMTP opens a client session with srv, inline on a memconn.Conn or
// over ServeConn on a net.Pipe, and returns it with a function that ends
// the session.
func dialSMTP(t *testing.T, srv *SMTPServer, inline bool) (*SMTPClient, func()) {
	t.Helper()
	var conn net.Conn
	end := func() {}
	if inline {
		c := new(memconn.Conn)
		var ss SMTPSession
		ss.Reset(srv)
		c.Reset(&ss)
		conn = c
	} else {
		cli, srvConn := net.Pipe()
		// A client out of step with the server fails instead of hanging.
		deadline := time.Now().Add(10 * time.Second)
		cli.SetDeadline(deadline)
		srvConn.SetDeadline(deadline)
		done := make(chan struct{})
		go func() { defer close(done); _ = srv.ServeConn(srvConn); srvConn.Close() }()
		conn, end = cli, func() { cli.Close(); <-done }
	}
	c, err := DialSMTP(conn)
	if err != nil {
		t.Fatal(err)
	}
	return c, end
}

// TestSendRefusesLineBreaks: the client refuses a sender, recipient or
// subject that holds CR, LF or NUL before it writes anything, so none can
// inject a command or a header; the session goes on, and the next message
// reaches its one recipient alone.
func TestSendRefusesLineBreaks(t *testing.T) {
	cases := []struct {
		name, from, to, subject string
		refused                 bool
	}{
		{name: "plain", from: "a@site.test", to: "b@relay.test", subject: "Please verify"},
		{name: "tab and non-ASCII", from: "a@site.test", to: "b@relay.test", subject: "Bitte\tbestätigen"},
		{name: "CRLF in sender", from: "a@site.test>\r\nRCPT TO:<evil@x.test", to: "b@relay.test", subject: "s", refused: true},
		{name: "LF in recipient", from: "a@site.test", to: "b@relay.test>\nRCPT TO:<evil@x.test", subject: "s", refused: true},
		{name: "CR in recipient", from: "a@site.test", to: "b@relay.test\r", subject: "s", refused: true},
		{name: "CRLF in subject", from: "a@site.test", to: "b@relay.test", subject: "s\r\nBcc: evil@x.test", refused: true},
		{name: "NUL in subject", from: "a@site.test", to: "b@relay.test", subject: "s\x00", refused: true},
		{name: "NUL in sender", from: "a\x00@site.test", to: "b@relay.test", subject: "s", refused: true},
	}
	for _, tc := range cases {
		for _, inline := range []bool{true, false} {
			srv := NewSMTPServer(NewServer())
			c, end := dialSMTP(t, srv, inline)
			err := c.Send(tc.from, tc.to, tc.subject, "body")
			if tc.refused != (err != nil) {
				t.Errorf("%s (inline %v): Send = %v", tc.name, inline, err)
			}
			if tc.refused && !errors.Is(err, errUnsendable) {
				t.Errorf("%s (inline %v): Send = %v, want errUnsendable", tc.name, inline, err)
			}
			if err := c.Send("next@site.test", "next@relay.test", "next", "body"); err != nil {
				t.Errorf("%s (inline %v): the next Send failed: %v", tc.name, inline, err)
			}
			if err := c.Close(); err != nil {
				t.Errorf("%s (inline %v): Close: %v", tc.name, inline, err)
			}
			end()
			want := []string{"b@relay.test", "next@relay.test"}
			if tc.refused {
				want = want[1:]
			}
			var got []string
			for _, m := range srv.Store.All() {
				got = append(got, m.To)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s (inline %v): store received mail for %q, want %q", tc.name, inline, got, want)
			}
		}
	}
}

// FuzzSMTPSession: any bytes a client sends, followed by a line break, a
// "." and QUIT so every session ends, give the same replies and the same
// stored messages inline and over ServeConn, wherever the inline writes
// split them, and never panic.
func FuzzSMTPSession(f *testing.F) {
	f.Add([]byte(strings.Join(lines(smtpDialogue), "")), uint16(7))
	f.Add([]byte("EHLO x\r\nMAIL FROM:<a@b.test>\r\nRCPT TO:<c@d.test>\r\nDATA\r\nSubject: s\r\n\r\n..\r\n.x\r\n"), uint16(30))
	f.Add([]byte("MAIL FROM:<a@b.test>\nRCPT TO:<c@d.test>\nDATA\n"+strings.Repeat("y", 100)+"\n.\nRSET\n"), uint16(0))
	f.Add([]byte("quit\r\nNOOP\r\n"), uint16(3))
	f.Add([]byte("\x00\r\r\n\n.\r\nDATA"), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		script := string(data) + "\r\n.\r\nQUIT\r\n"
		wantSrv := dialogueServer()
		want := overServeConn(t, wantSrv, []string{script})
		at := int(split) % (len(script) + 1)
		srv := dialogueServer()
		if got := inline(t, srv, []string{script[:at], script[at:]}); !bytes.Equal(got, want) {
			t.Fatalf("inline transcript differs\n got %q\nwant %q", got, want)
		}
		if got, want := stored(srv.Store), stored(wantSrv.Store); !slices.Equal(got, want) {
			t.Fatalf("inline stored %q, ServeConn %q", got, want)
		}
	})
}
