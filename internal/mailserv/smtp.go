package mailserv

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"

	"tripwire/internal/memconn"
)

// SMTPServer accepts RFC 5321 deliveries into a Server. It implements the
// minimal command set real MTAs require: HELO/EHLO, MAIL FROM, RCPT TO,
// DATA, RSET, NOOP, QUIT. The email provider's forwarding path delivers
// honey-account mail to Tripwire through it.
type SMTPServer struct {
	Store *Server
	// Hostname is announced in the greeting.
	Hostname string
	// MaxMessageBytes caps DATA size; oversized messages are rejected.
	MaxMessageBytes int
}

// NewSMTPServer returns an SMTP front end for store.
func NewSMTPServer(store *Server) *SMTPServer {
	return &SMTPServer{
		Store:           store,
		Hostname:        "mail.tripwire.test",
		MaxMessageBytes: 1 << 20,
	}
}

// Serve accepts connections until the listener is closed.
func (s *SMTPServer) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			// Per-connection errors end that session only.
			_ = s.ServeConn(conn)
		}()
	}
}

// ServeConn runs one SMTP session over conn.
func (s *SMTPServer) ServeConn(conn net.Conn) error {
	var ss SMTPSession
	ss.Reset(s)
	return memconn.Serve(conn, &ss)
}

// SMTPSession is the server half of one SMTP session, a memconn.Handler
// driven one request line at a time: ServeConn drives one over a network
// connection, and a memconn.Conn drives one inline on its caller's
// goroutine. After DATA is accepted, lines are message text until the line
// "." ends it.
type SMTPSession struct {
	srv    *SMTPServer
	from   string   // MAIL's reverse path; empty before MAIL
	rcpts  []string // RCPT's forward paths
	inData bool     // lines are message text
	tooBig bool     // the message outgrew MaxMessageBytes and is being drained
	data   []byte   // the message text read so far, CRLF-terminated lines
}

// Reset starts a fresh session served by s.
func (ss *SMTPSession) Reset(s *SMTPServer) {
	*ss = SMTPSession{srv: s}
}

// Greet appends the server greeting to dst.
func (ss *SMTPSession) Greet(dst []byte) []byte {
	dst = append(dst, "220 "...)
	dst = append(dst, ss.srv.Hostname...)
	return reply(dst, " ESMTP tripwire-mailserv")
}

// End ends the session. The session holds nothing in the store, and a
// message whose DATA never ended is dropped.
func (ss *SMTPSession) End() {}

// reply appends text and CRLF to dst.
func reply(dst []byte, text string) []byte {
	return append(append(dst, text...), '\r', '\n')
}

// resetMail drops the mail transaction: its sender and recipients.
func (ss *SMTPSession) resetMail() {
	ss.from, ss.rcpts = "", ss.rcpts[:0]
}

// Serve handles one request line, as memconn frames it, and appends the
// replies to dst. The verb matches in any case. done reports QUIT: the
// session is over, and the caller should read no further requests.
func (ss *SMTPSession) Serve(dst, line []byte) (out []byte, done bool) {
	if ss.inData {
		return ss.text(dst, line), false
	}
	verb, arg, _ := bytes.Cut(line, []byte(" "))
	arg = bytes.TrimSpace(arg)
	switch {
	case bytes.EqualFold(verb, []byte("HELO")):
		ss.resetMail()
		return reply(append(dst, "250 "...), ss.srv.Hostname), false
	case bytes.EqualFold(verb, []byte("EHLO")):
		ss.resetMail()
		dst = append(dst, "250-"...)
		dst = append(dst, ss.srv.Hostname...)
		dst = strconv.AppendInt(append(dst, "\r\n250 SIZE "...), int64(ss.srv.MaxMessageBytes), 10)
		return reply(dst, ""), false
	case bytes.EqualFold(verb, []byte("MAIL")):
		addr, ok := parsePath(arg, "FROM")
		if !ok {
			return reply(dst, "501 syntax: MAIL FROM:<address>"), false
		}
		ss.resetMail()
		ss.from = string(addr)
		return reply(dst, "250 OK"), false
	case bytes.EqualFold(verb, []byte("RCPT")):
		if ss.from == "" {
			return reply(dst, "503 need MAIL before RCPT"), false
		}
		addr, ok := parsePath(arg, "TO")
		if !ok || len(addr) == 0 {
			return reply(dst, "501 syntax: RCPT TO:<address>"), false
		}
		ss.rcpts = append(ss.rcpts, string(addr))
		return reply(dst, "250 OK"), false
	case bytes.EqualFold(verb, []byte("DATA")):
		if len(ss.rcpts) == 0 {
			return reply(dst, "503 need RCPT before DATA"), false
		}
		ss.inData, ss.tooBig, ss.data = true, false, ss.data[:0]
		return reply(dst, "354 end data with <CRLF>.<CRLF>"), false
	case bytes.EqualFold(verb, []byte("RSET")):
		ss.resetMail()
		return reply(dst, "250 OK"), false
	case bytes.EqualFold(verb, []byte("NOOP")):
		return reply(dst, "250 OK"), false
	case bytes.EqualFold(verb, []byte("QUIT")):
		return reply(dst, "221 bye"), true
	default:
		return reply(dst, "502 command not implemented"), false
	}
}

// text takes one line of message text. The line "." ends the message,
// which is then stored, or refused if it outgrew MaxMessageBytes; on any
// other line that begins with a period, the period is deleted (RFC 5321
// §4.5.2).
func (ss *SMTPSession) text(dst, line []byte) []byte {
	if len(line) == 1 && line[0] == '.' {
		status := "250 OK: queued"
		switch {
		case ss.tooBig:
			status = "552 message too large"
		case ss.srv.Store.DeliverRaw(ss.from, ss.rcpts, string(ss.data)) != nil:
			status = "451 message rejected: unparseable"
		}
		ss.inData = false
		ss.resetMail()
		return reply(dst, status)
	}
	if ss.tooBig {
		return dst
	}
	line, _ = bytes.CutPrefix(line, []byte("."))
	ss.data = append(append(ss.data, line...), '\r', '\n')
	if len(ss.data) > ss.srv.MaxMessageBytes {
		ss.tooBig, ss.data = true, ss.data[:0]
	}
	return dst
}

// parsePath parses a "FROM:<addr>" or "TO:<addr>" argument; key matches in
// any case. The address aliases arg.
func parsePath(arg []byte, key string) ([]byte, bool) {
	if len(arg) <= len(key) || !bytes.EqualFold(arg[:len(key)], []byte(key)) || arg[len(key)] != ':' {
		return nil, false
	}
	rest := bytes.TrimSpace(arg[len(key)+1:])
	rest = bytes.TrimPrefix(rest, []byte("<"))
	if i := bytes.IndexByte(rest, '>'); i >= 0 {
		rest = rest[:i]
	}
	return bytes.TrimSpace(rest), true
}

// SMTPClient is a minimal SMTP sender: the email provider's forwarding
// path drives it to push honey-account mail to the Tripwire mail server.
// Reset rebinds it to a fresh connection while keeping its buffers, so one
// SMTPClient can drive many sessions in turn; the zero value plus Reset is
// equivalent to DialSMTP.
type SMTPClient struct {
	conn net.Conn
	r    memconn.LineReader
	buf  []byte // the outgoing command or message, reused
}

// errUnsendable is returned for an envelope address or subject that holds
// CR, LF or NUL, which would end the command or header line it is sent on.
var errUnsendable = errors.New("mailserv: CR, LF and NUL cannot be sent in an address or subject")

// DialSMTP opens an SMTP session over conn: it consumes the greeting and
// sends EHLO.
func DialSMTP(conn net.Conn) (*SMTPClient, error) {
	c := &SMTPClient{}
	if err := c.Reset(conn); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset rebinds the client to a fresh connection, consumes the greeting
// and sends EHLO.
func (c *SMTPClient) Reset(conn net.Conn) error {
	c.conn = conn
	c.r.Reset(conn)
	if err := c.expect("220"); err != nil {
		return err
	}
	return c.cmd("250", append(c.buf[:0], "EHLO forwarder.provider.test"...))
}

// sendable reports whether s holds none of CR, LF and NUL.
func sendable(s string) bool {
	return !strings.ContainsAny(s, "\r\n\x00")
}

// Send transmits one message. Body lines may end in LF or CRLF; each is
// sent CRLF-terminated and dot-stuffed. A sender, recipient or subject
// that holds CR, LF or NUL is an error, and nothing is sent.
func (c *SMTPClient) Send(from, to, subject, body string) error {
	if !sendable(from) || !sendable(to) || !sendable(subject) {
		return errUnsendable
	}
	if err := c.cmd("250", c.path("MAIL FROM:<", from)); err != nil {
		return err
	}
	if err := c.cmd("250", c.path("RCPT TO:<", to)); err != nil {
		return err
	}
	if err := c.cmd("354", append(c.buf[:0], "DATA"...)); err != nil {
		return err
	}
	b := append(c.buf[:0], "From: "...)
	b = append(b, from...)
	b = append(b, "\r\nTo: "...)
	b = append(b, to...)
	b = append(b, "\r\nSubject: "...)
	b = append(b, subject...)
	b = append(b, "\r\n\r\n"...)
	for more := true; more; {
		var line string
		line, body, more = strings.Cut(body, "\n")
		line = strings.TrimRight(line, "\r")
		if strings.HasPrefix(line, ".") {
			b = append(b, '.')
		}
		b = append(append(b, line...), '\r', '\n')
	}
	// cmd terminates the final "." that ends the message text.
	return c.cmd("250", append(b, '.'))
}

// Close quits the session and closes the connection.
func (c *SMTPClient) Close() error {
	// The connection closes whatever the server replies to QUIT.
	_ = c.cmd("221", append(c.buf[:0], "QUIT"...))
	return c.conn.Close()
}

// path builds "<head><addr>>" in the command buffer.
func (c *SMTPClient) path(head, addr string) []byte {
	b := append(c.buf[:0], head...)
	return append(append(b, addr...), '>')
}

// cmd terminates line, built in the command buffer, writes it, and reads
// a reply that must carry code want.
func (c *SMTPClient) cmd(want string, line []byte) error {
	c.buf = append(line, '\r', '\n')
	if _, err := c.conn.Write(c.buf); err != nil {
		return err
	}
	return c.expect(want)
}

// expect reads one reply, skipping the continuation lines of a multi-line
// one, and fails unless it carries the three-digit code want.
func (c *SMTPClient) expect(want string) error {
	for {
		line, err := c.r.ReadLine()
		if err != nil {
			return err
		}
		if len(line) > 3 && line[3] == '-' {
			continue
		}
		if !bytes.HasPrefix(line, []byte(want)) || len(line) > 3 && line[3] != ' ' {
			return fmt.Errorf("mailserv: got %q, want code %s", line, want)
		}
		return nil
	}
}
