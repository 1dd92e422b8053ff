// Package memconn provides an in-memory net.Conn that runs the server half
// of a line-oriented protocol session inline, on the caller's goroutine.
//
// It exists for the credential-stuffing hot path: every simulated IMAP or
// POP3 login speaks the real protocol, but handing each command and reply
// between a client goroutine and a server goroutine cost more than the
// protocol itself (a fresh goroutine stack per session, and a park and a
// wake-up per message). A Conn instead buffers the client's writes and,
// for each complete request line, calls the protocol's per-session Handler
// before Write returns; the handler appends its replies to a buffer that
// Read drains. The bytes on the wire are exactly those a server driven by
// ServeConn over a real connection would send.
//
// Reads never block. A Read with no reply pending while the session is open
// fails at once with ErrWouldBlock, so a client that is out of step with
// the server fails instead of hanging. After the handler ends the session
// (LOGOUT, QUIT), reads drain the remaining replies and then return io.EOF,
// as a TCP peer's shutdown would, and writes fail. Reset rewinds a Conn so
// one Conn carries many sequential sessions without reallocating.
package memconn

import (
	"bytes"
	"errors"
	"io"
	"net"
	"time"
)

// ErrWouldBlock is returned by a Read while the session is open and no
// reply is pending: the client is waiting for a reply to a request it has
// not sent.
var ErrWouldBlock = errors.New("memconn: read with no reply pending")

// Handler is the server half of one session, driven one request line at a
// time.
type Handler interface {
	// Greet appends the greeting the server sends on connect to dst.
	Greet(dst []byte) []byte
	// Serve handles one request line, without its LF and without one CR
	// before the LF, and appends the replies to dst. done reports that the
	// request ended the session.
	Serve(dst, line []byte) (out []byte, done bool)
	// End ends the session, releasing whatever the session holds in the
	// backend.
	End()
}

// addr is the static address both ends report.
type addr struct{}

func (addr) Network() string { return "mem" }
func (addr) String() string  { return "mem" }

// Conn is the client end of an inline session. The zero value is unusable
// until Reset. A Conn is not safe for concurrent use: the goroutine that
// writes a request runs the server's handling of it.
type Conn struct {
	h      Handler // nil once the session has ended
	in     []byte  // request bytes not yet framed into a line
	out    []byte  // replies not yet read, from out[r:]
	r      int
	closed bool
}

// Reset ends the previous session if it is still open, drops every byte
// of it, and starts a fresh session served by h whose greeting the first
// Read returns.
func (c *Conn) Reset(h Handler) {
	c.end()
	c.h = h
	c.in = c.in[:0]
	c.r = 0
	c.out = h.Greet(c.out[:0])
	c.closed = false
}

// Read drains pending replies. With none pending it returns ErrWouldBlock
// while the session is open, io.EOF after it ended, and io.ErrClosedPipe
// after Close.
func (c *Conn) Read(p []byte) (int, error) {
	if c.closed {
		return 0, io.ErrClosedPipe
	}
	if c.r < len(c.out) {
		n := copy(p, c.out[c.r:])
		c.r += n
		return n, nil
	}
	if c.h == nil {
		return 0, io.EOF
	}
	return 0, ErrWouldBlock
}

// Write hands each complete request line in p to the handler before it
// returns. Lines are framed at LF, so a bare LF inside an IMAP command
// splits it where the IMAP server's CRLF framing would not; no client in
// this repository sends one. Bytes after the request that ends the session
// are discarded, as a server that stopped reading would leave them unread.
// Writing after the session ended fails with io.ErrClosedPipe.
func (c *Conn) Write(p []byte) (int, error) {
	if c.closed || c.h == nil {
		return 0, io.ErrClosedPipe
	}
	if c.r == len(c.out) {
		c.out, c.r = c.out[:0], 0
	}
	c.in = append(c.in, p...)
	rest := c.in
	for {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			break
		}
		line := rest[:i]
		rest = rest[i+1:]
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		var done bool
		c.out, done = c.h.Serve(c.out, line)
		if done {
			c.end()
			c.in = c.in[:0]
			return len(p), nil
		}
	}
	c.in = c.in[:copy(c.in, rest)]
	return len(p), nil
}

// end ends the session exactly once.
func (c *Conn) end() {
	if c.h != nil {
		c.h.End()
		c.h = nil
	}
}

// Close ends the session if a request has not already, then makes every
// later Read and Write fail. Idempotent.
func (c *Conn) Close() error {
	c.end()
	c.closed = true
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return addr{} }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return addr{} }

// SetDeadline implements net.Conn as a no-op: reads and writes never block.
func (c *Conn) SetDeadline(time.Time) error { return nil }

// SetReadDeadline implements net.Conn as a no-op.
func (c *Conn) SetReadDeadline(time.Time) error { return nil }

// SetWriteDeadline implements net.Conn as a no-op.
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }
