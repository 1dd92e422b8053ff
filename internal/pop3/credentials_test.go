package pop3

import (
	"net"
	"slices"
	"testing"

	"tripwire/internal/imap"
	"tripwire/internal/memconn"
)

// credentialLogin logs in with user and pass over one protocol ("imap" or
// "pop3") and one transport (inline on a memconn.Conn, or ServeConn over
// a net.Pipe), and returns the client's error.
func credentialLogin(t *testing.T, proto string, inline bool, b imap.Backend, user, pass string) error {
	t.Helper()
	var conn net.Conn
	if inline {
		c := new(memconn.Conn)
		if proto == "imap" {
			var ss imap.ServerSession
			ss.Reset(imap.NewServer(b), dialogueRemote)
			c.Reset(&ss)
		} else {
			var ss ServerSession
			ss.Reset(NewServer(b), dialogueRemote)
			c.Reset(&ss)
		}
		conn = c
	} else {
		cli, srv := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			if proto == "imap" {
				_ = imap.NewServer(b).ServeConn(srv, dialogueRemote)
			} else {
				_ = NewServer(b).ServeConn(srv, dialogueRemote)
			}
			srv.Close()
		}()
		defer func() { cli.Close(); <-done }()
		conn = cli
	}
	if proto == "imap" {
		var c imap.Client
		if err := c.Reset(conn); err != nil {
			t.Fatal(err)
		}
		return c.Login(user, pass)
	}
	var c Client
	if err := c.Reset(conn); err != nil {
		t.Fatal(err)
	}
	return c.Auth(user, pass)
}

// TestCredentialsSurviveBothProtocols: a user and password reach the
// backend byte for byte over IMAP and POP3, inline and over ServeConn,
// whatever spaces, quotes, backslashes, tabs or non-ASCII bytes they hold;
// and each client refuses one that holds CR, LF or NUL before it sends
// anything.
func TestCredentialsSurviveBothProtocols(t *testing.T) {
	cases := []struct {
		name, user, pass string
		refused          bool
	}{
		{name: "plain", user: "gem@mail.test", pass: "Website1"},
		{name: "inner space", user: "gem@mail.test", pass: "pass word"},
		{name: "quote", user: "gem@mail.test", pass: `has"quote`},
		{name: "backslash", user: "gem@mail.test", pass: `back\slash`},
		{name: "escaped quote at end", user: "gem@mail.test", pass: `end\"`},
		{name: "tab", user: "gem@mail.test", pass: "tab\there"},
		{name: "leading space", user: "gem@mail.test", pass: " lead"},
		{name: "trailing space", user: "gem@mail.test", pass: "trail "},
		{name: "non-ASCII", user: "gem@mail.test", pass: "pässwörd\xff"},
		{name: "quoted user", user: `"odd\user"@mail.test`, pass: "Website1"},
		{name: "CR", user: "gem@mail.test", pass: "a\rb", refused: true},
		{name: "LF", user: "gem@mail.test", pass: "a\nb", refused: true},
		{name: "NUL", user: "gem@mail.test", pass: "a\x00b", refused: true},
		{name: "LF in user", user: "gem@mail.test\nPASS x", pass: "Website1", refused: true},
	}
	for _, tc := range cases {
		for _, proto := range []string{"imap", "pop3"} {
			for _, inline := range []bool{true, false} {
				b := &fakeBackend{pass: map[string]string{tc.user: tc.pass}}
				err := credentialLogin(t, proto, inline, b, tc.user, tc.pass)
				want := []string{tc.user + " " + tc.pass + " " + dialogueRemote.String()}
				if tc.refused {
					want = nil
				}
				switch {
				case tc.refused && err == nil:
					t.Errorf("%s over %s (inline %v): the client sent a credential holding CR, LF or NUL", tc.name, proto, inline)
				case !tc.refused && err != nil:
					t.Errorf("%s over %s (inline %v): login failed: %v", tc.name, proto, inline, err)
				}
				if !slices.Equal(b.calls, want) {
					t.Errorf("%s over %s (inline %v): backend saw %q, want %q", tc.name, proto, inline, b.calls, want)
				}
			}
		}
	}
}
