// Package pop3 implements a minimal POP3 (RFC 1939) server and client.
// The provider's login dumps record access method — "timestamp, remote IP,
// and method (IMAP, POP, etc.)" (paper §4.2) — and a minority of attacker
// tooling collects mail over POP3 rather than IMAP; this package provides
// that second protocol path end to end.
package pop3

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strconv"

	"tripwire/internal/imap"
	"tripwire/internal/memconn"
)

// Server speaks POP3 over accepted connections. Authentication and mailbox
// access delegate to an imap.Backend (the mailbox model is identical:
// Select("INBOX") + Fetch).
type Server struct {
	Backend imap.Backend
	// Greeting is announced on connect.
	Greeting string
}

// NewServer returns a POP3 front end over backend.
func NewServer(backend imap.Backend) *Server {
	return &Server{Backend: backend, Greeting: "tripwire-sim POP3 ready"}
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			addr := netip.Addr{}
			if ap, err := netip.ParseAddrPort(conn.RemoteAddr().String()); err == nil {
				addr = ap.Addr()
			}
			_ = s.ServeConn(conn, addr)
		}()
	}
}

// ServeConn runs one POP3 session; remote is the address recorded on login.
func (s *Server) ServeConn(conn net.Conn, remote netip.Addr) error {
	var ss ServerSession
	ss.Reset(s, remote)
	return memconn.Serve(conn, &ss)
}

// ServerSession is the server half of one POP3 session, a memconn.Handler
// driven one request line at a time: ServeConn drives one over a network
// connection, and a memconn.Conn drives one inline on its caller's
// goroutine. Its buffers survive Reset, so one ServerSession can serve
// many sessions in turn.
type ServerSession struct {
	srv    *Server
	remote netip.Addr
	user   []byte // USER's argument, kept for PASS
	sess   imap.Session
	count  int
	body   []byte // the message RETR dot-stuffs
}

// Reset ends the session if it is still open and starts a fresh one served
// by s for a client at remote, whose address the backend logs on login.
func (ss *ServerSession) Reset(s *Server, remote netip.Addr) {
	ss.End()
	*ss = ServerSession{srv: s, remote: remote, user: ss.user[:0], body: ss.body[:0]}
}

// Greet appends the server greeting to dst.
func (ss *ServerSession) Greet(dst []byte) []byte {
	return ok(dst, ss.srv.Greeting)
}

// End logs the backend session out, if a login succeeded. Idempotent.
func (ss *ServerSession) End() {
	if ss.sess != nil {
		_ = ss.sess.Logout()
		ss.sess = nil
	}
}

// ok appends "+OK text" CRLF to dst.
func ok(dst []byte, text string) []byte {
	dst = append(dst, "+OK "...)
	return append(append(dst, text...), crlf...)
}

// fail appends "-ERR text" CRLF to dst.
func fail(dst []byte, text string) []byte {
	dst = append(dst, "-ERR "...)
	return append(append(dst, text...), crlf...)
}

// appendInt appends n in decimal to dst.
func appendInt(dst []byte, n int) []byte { return strconv.AppendInt(dst, int64(n), 10) }

var crlf = []byte("\r\n")

// Serve handles one request line, as memconn frames it, and appends the
// replies to dst. The verb matches in any case. PASS takes the rest of the
// line verbatim as the password; every other argument is trimmed of
// spaces. done reports QUIT: the session is over, and the caller should
// read no further requests.
func (ss *ServerSession) Serve(dst, line []byte) (out []byte, done bool) {
	verb, arg, _ := bytes.Cut(line, []byte(" "))
	switch {
	case bytes.EqualFold(verb, []byte("USER")):
		ss.user = append(ss.user[:0], bytes.TrimSpace(arg)...)
		return ok(dst, "send PASS"), false
	case bytes.EqualFold(verb, []byte("PASS")):
		if len(ss.user) == 0 {
			return fail(dst, "USER first"), false
		}
		sess, err := ss.srv.Backend.Login(string(ss.user), string(arg), ss.remote)
		if err != nil {
			return fail(dst, "authentication failed"), false
		}
		ss.sess = sess
		ss.count, err = sess.Select("INBOX")
		if err != nil {
			ss.count = 0
		}
		dst = appendInt(append(dst, "+OK maildrop has "...), ss.count)
		return append(dst, " messages\r\n"...), false
	case bytes.EqualFold(verb, []byte("STAT")):
		if ss.sess == nil {
			return fail(dst, "not authenticated"), false
		}
		dst = appendInt(append(dst, "+OK "...), ss.count)
		dst = appendInt(append(dst, ' '), ss.count*1024)
		return append(dst, crlf...), false
	case bytes.EqualFold(verb, []byte("LIST")):
		if ss.sess == nil {
			return fail(dst, "not authenticated"), false
		}
		dst = appendInt(append(dst, "+OK "...), ss.count)
		dst = append(dst, " messages\r\n"...)
		for i := 1; i <= ss.count; i++ {
			dst = append(appendInt(dst, i), " 1024\r\n"...)
		}
		return append(dst, ".\r\n"...), false
	case bytes.EqualFold(verb, []byte("RETR")):
		if ss.sess == nil {
			return fail(dst, "not authenticated"), false
		}
		n, err := strconv.Atoi(string(bytes.TrimSpace(arg)))
		if err != nil || n < 1 || n > ss.count {
			return fail(dst, "no such message"), false
		}
		m, err := ss.sess.Fetch(n)
		if err != nil {
			return fail(dst, "fetch failed"), false
		}
		return ss.retr(ok(dst, "message follows"), m), false
	case bytes.EqualFold(verb, []byte("DELE")), bytes.EqualFold(verb, []byte("RSET")):
		// Honey mailboxes are read-only in the simulation; accept and
		// ignore, like a maildrop that never expunges.
		return ok(dst, "noted"), false
	case bytes.EqualFold(verb, []byte("NOOP")):
		return ok(dst, ""), false
	case bytes.EqualFold(verb, []byte("QUIT")):
		return ok(dst, "bye"), true
	default:
		return fail(dst, "unknown command"), false
	}
}

// retr appends m to dst as RETR's multi-line body: its header and body
// lines, each CRLF-terminated, with a leading '.' doubled, then the
// terminating ".".
func (ss *ServerSession) retr(dst []byte, m imap.Message) []byte {
	b := append(ss.body[:0], "From: "...)
	b = append(b, m.From...)
	b = append(b, "\r\nSubject: "...)
	b = append(b, m.Subject...)
	b = append(b, "\r\n\r\n"...)
	b = append(b, m.Body...)
	ss.body = b
	for more := true; more; {
		var ln []byte
		ln, b, more = bytes.Cut(b, crlf)
		if len(ln) > 0 && ln[0] == '.' {
			dst = append(dst, '.')
		}
		dst = append(append(dst, ln...), crlf...)
	}
	return append(dst, ".\r\n"...)
}

// Client is a minimal POP3 client. Reset rebinds it to a fresh connection
// while keeping its buffers, so one Client can drive many sessions in turn;
// the zero value plus Reset is equivalent to Dial.
type Client struct {
	conn    net.Conn
	r       memconn.LineReader
	scratch []byte // the outgoing command, then a message Retr reads
}

// Errors the client returns.
var (
	errAuth       = errors.New("pop3: authentication failed")
	errUnsendable = errors.New("pop3: CR, LF and NUL cannot be sent in a credential")
)

// Dial opens a POP3 session over conn, consuming the greeting.
func Dial(conn net.Conn) (*Client, error) {
	c := &Client{}
	if err := c.Reset(conn); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset rebinds the client to a fresh connection and consumes the
// greeting.
func (c *Client) Reset(conn net.Conn) error {
	c.conn = conn
	c.r.Reset(conn)
	_, err := c.expectOK()
	return err
}

// sendable reports whether s holds none of CR, LF and NUL, which would end
// or corrupt the command line it is sent on.
func sendable(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\r' || c == '\n' || c == 0 {
			return false
		}
	}
	return true
}

// Auth authenticates with USER/PASS. A user or password that holds CR, LF
// or NUL is an error, and nothing is sent.
func (c *Client) Auth(user, pass string) error {
	if !sendable(user) || !sendable(pass) {
		return errUnsendable
	}
	if _, err := c.cmd("USER ", user); err != nil {
		return err
	}
	if _, err := c.cmd("PASS ", pass); err != nil {
		return errAuth
	}
	return nil
}

// Stat returns the message count.
func (c *Client) Stat() (int, error) {
	line, err := c.cmd("STAT", "")
	if err != nil {
		return 0, err
	}
	rest, _ := bytes.CutPrefix(line, []byte("+OK "))
	count, size, _ := bytes.Cut(rest, []byte(" "))
	n, err := strconv.Atoi(string(count))
	if _, serr := strconv.Atoi(string(size)); err != nil || serr != nil {
		return 0, fmt.Errorf("pop3: malformed STAT reply %q", line)
	}
	return n, nil
}

// Retr fetches message n (1-based) as raw text.
func (c *Client) Retr(n int) (string, error) {
	if _, err := c.cmd("RETR ", strconv.Itoa(n)); err != nil {
		return "", err
	}
	b := c.scratch[:0]
	for {
		line, err := c.r.ReadLine()
		if err != nil {
			return "", err
		}
		if len(line) == 1 && line[0] == '.' {
			c.scratch = b
			return string(b), nil
		}
		if bytes.HasPrefix(line, []byte("..")) {
			line = line[1:]
		}
		b = append(append(b, line...), crlf...)
	}
}

// Quit ends the session and closes the connection.
func (c *Client) Quit() error {
	_, _ = c.cmd("QUIT", "")
	return c.conn.Close()
}

// cmd writes head and arg as one command line and returns the reply line,
// which is valid until the next read.
func (c *Client) cmd(head, arg string) ([]byte, error) {
	line := append(append(c.scratch[:0], head...), arg...)
	c.scratch = append(line, crlf...)
	if _, err := c.conn.Write(c.scratch); err != nil {
		return nil, err
	}
	return c.expectOK()
}

func (c *Client) expectOK() ([]byte, error) {
	line, err := c.r.ReadLine()
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(line, []byte("+OK")) {
		return line, fmt.Errorf("pop3: server said %q", line)
	}
	return line, nil
}
