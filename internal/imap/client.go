package imap

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"

	"tripwire/internal/memconn"
)

// Client is a minimal IMAP client: the attacker simulation drives it to
// log in to stolen accounts and siphon mail, producing exactly the
// provider-side login telemetry Tripwire monitors.
//
// A Client is reusable: Reset rebinds it to a fresh connection while
// keeping its internal buffers, so the stuffing bot pool can drive tens of
// thousands of sequential sessions through one Client without per-session
// garbage. The zero value plus Reset is equivalent to Dial.
type Client struct {
	conn    net.Conn
	r       memconn.LineReader
	tag     int
	tagBuf  []byte // current command tag ("aNNN"), reused
	scratch []byte // outgoing command build buffer, reused
}

// Dial starts an IMAP session over conn, consuming the server greeting.
func Dial(conn net.Conn) (*Client, error) {
	c := &Client{}
	if err := c.Reset(conn); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset rebinds the client to a fresh connection, rewinds the tag counter,
// and consumes the server greeting. Buffers from previous sessions are
// retained.
func (c *Client) Reset(conn net.Conn) error {
	c.conn = conn
	c.r.Reset(conn)
	c.tag = 0
	line, err := c.r.ReadLine()
	if err != nil {
		return fmt.Errorf("imap: reading greeting: %w", err)
	}
	if !bytes.HasPrefix(line, []byte("* OK")) {
		return fmt.Errorf("imap: unexpected greeting %q", line)
	}
	return nil
}

// begin allocates the next tag and returns the scratch buffer primed with
// "tag " for the caller to append the command body onto; pass the result
// to send.
func (c *Client) begin() []byte {
	c.tag++
	t := c.tagBuf[:0]
	t = append(t, 'a')
	// Zero-pad to three digits, matching the classic aNNN tag shape.
	if c.tag < 100 {
		t = append(t, '0')
	}
	if c.tag < 10 {
		t = append(t, '0')
	}
	t = strconv.AppendInt(t, int64(c.tag), 10)
	c.tagBuf = t
	b := append(c.scratch[:0], t...)
	return append(b, ' ')
}

// send terminates and writes a command line built by begin.
func (c *Client) send(line []byte) error {
	line = append(line, '\r', '\n')
	c.scratch = line
	_, err := c.conn.Write(line)
	return err
}

// isTagged reports whether line is the tagged reply to the current command.
func (c *Client) isTagged(line []byte) bool {
	return len(line) > len(c.tagBuf) && bytes.HasPrefix(line, c.tagBuf) && line[len(c.tagBuf)] == ' '
}

// status reads until the current command's tagged reply and returns the
// status portion ("OK ...", "NO ...", "BAD ..."), skipping untagged
// responses. The returned bytes are valid until the next read.
func (c *Client) status() ([]byte, error) {
	for {
		line, err := c.r.ReadLine()
		if err != nil {
			return nil, err
		}
		if c.isTagged(line) {
			return line[len(c.tagBuf)+1:], nil
		}
	}
}

// errUnquotable is returned for a string that holds a byte an IMAP quoted
// string cannot carry.
var errUnquotable = errors.New("imap: CR, LF and NUL cannot be sent in a quoted string")

// appendQuoted appends s to dst as an IMAP quoted string: " and \ are
// escaped with a backslash, and every other byte is copied as is, so a
// string that holds neither is copied in one append. ok is false when s
// holds CR, LF or NUL, which no quoted string can carry.
func appendQuoted(dst []byte, s string) (out []byte, ok bool) {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"', '\\':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\')
			start = i
		case '\r', '\n', 0:
			return dst, false
		}
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"'), true
}

// Login authenticates. It maps the server's status responses back to the
// sentinel errors so callers can distinguish wrong-password from frozen
// from throttled. A user or password that holds CR, LF or NUL is an error,
// and nothing is sent.
func (c *Client) Login(user, pass string) error {
	line, ok := appendQuoted(append(c.begin(), "LOGIN "...), user)
	if ok {
		line, ok = appendQuoted(append(line, ' '), pass)
	}
	if !ok {
		return errUnquotable
	}
	if err := c.send(line); err != nil {
		return err
	}
	status, err := c.status()
	if err != nil {
		return err
	}
	switch {
	case bytes.HasPrefix(status, []byte("OK")):
		return nil
	case bytes.Contains(status, []byte("UNAVAILABLE")):
		return ErrThrottled
	case bytes.Contains(status, []byte("CONTACTADMIN")):
		return ErrAccountFrozen
	default:
		return ErrAuthFailed
	}
}

// Select opens a mailbox and returns its message count. A name that holds
// CR, LF or NUL is an error, and nothing is sent.
func (c *Client) Select(mailbox string) (int, error) {
	line, ok := appendQuoted(append(c.begin(), "SELECT "...), mailbox)
	if !ok {
		return 0, errUnquotable
	}
	if err := c.send(line); err != nil {
		return 0, err
	}
	count := 0
	for {
		line, err := c.r.ReadLine()
		if err != nil {
			return 0, err
		}
		if n, ok := parseExists(line); ok {
			count = n
			continue
		}
		if c.isTagged(line) {
			if bytes.HasPrefix(line[len(c.tagBuf)+1:], []byte("OK")) {
				return count, nil
			}
			return 0, fmt.Errorf("imap: SELECT failed: %s", line)
		}
	}
}

// parseExists recognizes "* N EXISTS".
func parseExists(line []byte) (int, bool) {
	const suffix = " EXISTS"
	if !bytes.HasPrefix(line, []byte("* ")) || !bytes.HasSuffix(line, []byte(suffix)) {
		return 0, false
	}
	return atoiBytes(line[2 : len(line)-len(suffix)])
}

// Fetch retrieves messages lo..hi (1-based, inclusive).
func (c *Client) Fetch(lo, hi int) ([]Message, error) {
	line := append(c.begin(), "FETCH "...)
	line = strconv.AppendInt(line, int64(lo), 10)
	line = append(line, ':')
	line = strconv.AppendInt(line, int64(hi), 10)
	line = append(line, " (BODY[])"...)
	if err := c.send(line); err != nil {
		return nil, err
	}
	var out []Message
	for {
		line, err := c.r.ReadLine()
		if err != nil {
			return nil, err
		}
		if size, ok := parseFetchLiteral(line); ok {
			lit, err := c.r.ReadN(size)
			if err != nil {
				return nil, err
			}
			// Consume the closing ")" line.
			if _, err := c.r.ReadLine(); err != nil {
				return nil, err
			}
			out = append(out, parseLiteral(lit))
			continue
		}
		if c.isTagged(line) {
			if bytes.HasPrefix(line[len(c.tagBuf)+1:], []byte("OK")) {
				return out, nil
			}
			return out, fmt.Errorf("imap: FETCH failed: %s", line)
		}
	}
}

// parseFetchLiteral recognizes "* N FETCH (BODY[] {SIZE}" and returns the
// literal size.
func parseFetchLiteral(line []byte) (int, bool) {
	const marker = " FETCH (BODY[] {"
	if !bytes.HasPrefix(line, []byte("* ")) {
		return 0, false
	}
	i := bytes.Index(line, []byte(marker))
	if i < 0 || line[len(line)-1] != '}' {
		return 0, false
	}
	if _, ok := atoiBytes(line[2:i]); !ok {
		return 0, false
	}
	return atoiBytes(line[i+len(marker) : len(line)-1])
}

// Logout ends the session and closes the connection.
func (c *Client) Logout() error {
	_ = c.send(append(c.begin(), "LOGOUT"...))
	// Read until the tagged reply or EOF; then close.
	for {
		line, err := c.r.ReadLine()
		if err != nil {
			break
		}
		if c.isTagged(line) {
			break
		}
	}
	return c.conn.Close()
}

func parseLiteral(lit []byte) Message {
	var m Message
	head, body, found := bytes.Cut(lit, []byte("\r\n\r\n"))
	if !found {
		m.Body = string(lit)
		return m
	}
	for len(head) > 0 {
		var line []byte
		if i := bytes.Index(head, []byte("\r\n")); i >= 0 {
			line, head = head[:i], head[i+2:]
		} else {
			line, head = head, nil
		}
		if v, ok := bytes.CutPrefix(line, []byte("From: ")); ok {
			m.From = string(v)
		}
		if v, ok := bytes.CutPrefix(line, []byte("Subject: ")); ok {
			m.Subject = string(v)
		}
	}
	m.Body = string(body)
	return m
}

// atoiBytes parses an unsigned decimal without allocating.
func atoiBytes(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
