// Package memconn is where the repository's line protocols (IMAP, POP3
// and SMTP) are served. A protocol's server half is a Handler, driven one
// request line at a time. Serve runs a Handler over a real net.Conn, and
// Conn runs one inline, on the caller's goroutine. Both frame requests the
// same way, at LF with one CR before it dropped, so a session sends the
// same bytes either way. LineReader reads the replies on the client side.
//
// The inline Conn exists for the simulation's hot paths: every stuffed
// IMAP or POP3 login and every message the provider forwards over SMTP
// speaks the real protocol, but handing each command and reply between a
// client goroutine and a server goroutine cost more than the protocol
// itself (a fresh goroutine stack per session, and a park and a wake-up
// per message). A Conn instead buffers the client's writes and, for each
// complete request line, calls the Handler before Write returns; the
// handler appends its replies to a buffer that Read drains.
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
	"slices"
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

// frame hands each complete request line in in to h and appends the
// replies to out. It returns the replies, the bytes of an unfinished line
// moved to the front of in, and whether a request ended the session, in
// which case the bytes after that request are dropped.
func frame(h Handler, in, out []byte) (replies, rest []byte, done bool) {
	buf := in
	for {
		i := bytes.IndexByte(in, '\n')
		if i < 0 {
			return out, buf[:copy(buf, in)], false
		}
		line := in[:i]
		in = in[i+1:]
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if out, done = h.Serve(out, line); done {
			return out, buf[:0], true
		}
	}
}

// Serve runs the session h over conn: it sends h's greeting, frames what
// the client sends into request lines as Conn.Write does, and writes the
// replies to the lines of each read in one write. It returns nil once a
// request ends the session and its replies are written, or the first read
// or write error, and it ends h either way.
func Serve(conn net.Conn, h Handler) error {
	defer h.End()
	out, in := h.Greet(nil), make([]byte, 0, 4096)
	var done bool
	var rerr error
	for {
		// An empty write on a synchronous conn such as net.Pipe would
		// wait for a read the client may never make.
		if len(out) > 0 {
			if _, err := conn.Write(out); err != nil {
				return err
			}
		}
		if done {
			return nil
		}
		if rerr != nil {
			return rerr
		}
		if len(in) == cap(in) {
			in = slices.Grow(in, len(in))
		}
		var n int
		n, rerr = conn.Read(in[len(in):cap(in)])
		out, in, done = frame(h, in[:len(in)+n], out[:0])
	}
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
// returns, framed as Serve frames them. Bytes after the request that ends
// the session are discarded, as a server that stopped reading would leave
// them unread. Writing after the session ended fails with io.ErrClosedPipe.
func (c *Conn) Write(p []byte) (int, error) {
	if c.closed || c.h == nil {
		return 0, io.ErrClosedPipe
	}
	if c.r == len(c.out) {
		c.out, c.r = c.out[:0], 0
	}
	var done bool
	c.out, c.in, done = frame(c.h, append(c.in, p...), c.out)
	if done {
		c.end()
	}
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
