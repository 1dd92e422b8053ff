// Package pop3 implements a minimal POP3 (RFC 1939) server and client.
// The provider's login dumps record access method — "timestamp, remote IP,
// and method (IMAP, POP, etc.)" (paper §4.2) — and a minority of attacker
// tooling collects mail over POP3 rather than IMAP; this package provides
// that second protocol path end to end.
package pop3

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"strings"

	"tripwire/internal/imap"
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
	defer ss.End()
	r := bufio.NewReader(conn)
	out, done := ss.Greet(nil), false
	for {
		if _, err := conn.Write(out); err != nil || done {
			return err
		}
		line, err := r.ReadBytes('\n')
		if err != nil {
			return err
		}
		out, done = ss.Serve(out[:0], line)
	}
}

// ServerSession is the server half of one POP3 session, driven one request
// line at a time: ServeConn drives one over a network connection, and a
// memconn.Conn drives one inline on its caller's goroutine.
type ServerSession struct {
	srv    *Server
	remote netip.Addr
	user   string
	sess   imap.Session
	count  int
}

// Reset ends the session if it is still open and starts a fresh one served
// by s for a client at remote, whose address the backend logs on login.
func (ss *ServerSession) Reset(s *Server, remote netip.Addr) {
	ss.End()
	*ss = ServerSession{srv: s, remote: remote}
}

// Greet appends the server greeting to dst.
func (ss *ServerSession) Greet(dst []byte) []byte {
	return okf(dst, "%s", ss.srv.Greeting)
}

// End logs the backend session out, if a login succeeded. Idempotent.
func (ss *ServerSession) End() {
	if ss.sess != nil {
		_ = ss.sess.Logout()
		ss.sess = nil
	}
}

func okf(dst []byte, format string, args ...any) []byte {
	return fmt.Appendf(dst, "+OK "+format+"\r\n", args...)
}

func errf(dst []byte, format string, args ...any) []byte {
	return fmt.Appendf(dst, "-ERR "+format+"\r\n", args...)
}

// Serve handles one request line and appends the replies to dst; trailing
// CR and LF bytes on line are ignored. done reports QUIT: the session is
// over, and the caller should read no further requests.
func (ss *ServerSession) Serve(dst, line []byte) (out []byte, done bool) {
	verb, arg := splitVerb(string(bytes.TrimRight(line, "\r\n")))
	switch verb {
	case "USER":
		ss.user = arg
		return okf(dst, "send PASS"), false
	case "PASS":
		if ss.user == "" {
			return errf(dst, "USER first"), false
		}
		sess, err := ss.srv.Backend.Login(ss.user, arg, ss.remote)
		if err != nil {
			return errf(dst, "authentication failed"), false
		}
		ss.sess = sess
		ss.count, err = sess.Select("INBOX")
		if err != nil {
			ss.count = 0
		}
		return okf(dst, "maildrop has %d messages", ss.count), false
	case "STAT":
		if ss.sess == nil {
			return errf(dst, "not authenticated"), false
		}
		return okf(dst, "%d %d", ss.count, ss.count*1024), false
	case "LIST":
		if ss.sess == nil {
			return errf(dst, "not authenticated"), false
		}
		dst = okf(dst, "%d messages", ss.count)
		for i := 1; i <= ss.count; i++ {
			dst = fmt.Appendf(dst, "%d 1024\r\n", i)
		}
		return append(dst, ".\r\n"...), false
	case "RETR":
		if ss.sess == nil {
			return errf(dst, "not authenticated"), false
		}
		n, err := strconv.Atoi(arg)
		if err != nil || n < 1 || n > ss.count {
			return errf(dst, "no such message"), false
		}
		m, err := ss.sess.Fetch(n)
		if err != nil {
			return errf(dst, "fetch failed"), false
		}
		dst = okf(dst, "message follows")
		body := fmt.Sprintf("From: %s\r\nSubject: %s\r\n\r\n%s", m.From, m.Subject, m.Body)
		for _, ln := range strings.Split(body, "\r\n") {
			if strings.HasPrefix(ln, ".") {
				dst = append(dst, '.')
			}
			dst = append(dst, ln...)
			dst = append(dst, "\r\n"...)
		}
		return append(dst, ".\r\n"...), false
	case "DELE", "RSET":
		// Honey mailboxes are read-only in the simulation; accept and
		// ignore, like a maildrop that never expunges.
		return okf(dst, "noted"), false
	case "NOOP":
		return okf(dst, ""), false
	case "QUIT":
		return okf(dst, "bye"), true
	default:
		return errf(dst, "unknown command"), false
	}
}

func splitVerb(line string) (string, string) {
	if i := strings.IndexByte(line, ' '); i >= 0 {
		return strings.ToUpper(line[:i]), strings.TrimSpace(line[i+1:])
	}
	return strings.ToUpper(line), ""
}

// Client is a minimal POP3 client. Reset rebinds it to a fresh connection
// while keeping its buffers, so one Client can drive many sessions in turn;
// the zero value plus Reset is equivalent to Dial.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

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
	if c.r == nil {
		c.r, c.w = bufio.NewReader(conn), bufio.NewWriter(conn)
	} else {
		c.r.Reset(conn)
		c.w.Reset(conn)
	}
	_, err := c.expectOK()
	return err
}

// Auth authenticates with USER/PASS.
func (c *Client) Auth(user, pass string) error {
	if _, err := c.cmd("USER " + user); err != nil {
		return err
	}
	if _, err := c.cmd("PASS " + pass); err != nil {
		return fmt.Errorf("pop3: authentication failed")
	}
	return nil
}

// Stat returns the message count.
func (c *Client) Stat() (int, error) {
	line, err := c.cmd("STAT")
	if err != nil {
		return 0, err
	}
	var n, size int
	if _, err := fmt.Sscanf(line, "+OK %d %d", &n, &size); err != nil {
		return 0, fmt.Errorf("pop3: malformed STAT reply %q", line)
	}
	return n, nil
}

// Retr fetches message n (1-based) as raw text.
func (c *Client) Retr(n int) (string, error) {
	if _, err := c.cmd(fmt.Sprintf("RETR %d", n)); err != nil {
		return "", err
	}
	var b strings.Builder
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return "", err
		}
		trimmed := strings.TrimRight(line, "\r\n")
		if trimmed == "." {
			return b.String(), nil
		}
		if strings.HasPrefix(trimmed, "..") {
			trimmed = trimmed[1:]
		}
		b.WriteString(trimmed)
		b.WriteString("\r\n")
	}
}

// Quit ends the session and closes the connection.
func (c *Client) Quit() error {
	_, _ = c.cmd("QUIT")
	return c.conn.Close()
}

func (c *Client) cmd(line string) (string, error) {
	if _, err := c.w.WriteString(line + "\r\n"); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	return c.expectOK()
}

func (c *Client) expectOK() (string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimRight(line, "\r\n")
	if !strings.HasPrefix(line, "+OK") {
		return line, fmt.Errorf("pop3: server said %q", line)
	}
	return line, nil
}
