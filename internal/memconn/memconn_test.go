package memconn

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// echo is a line protocol for exercising Conn: it greets, answers each
// request line with the line upper-cased, and ends the session on "quit".
type echo struct {
	lines []string // request lines served, in order
	ends  int
}

func (e *echo) Greet(dst []byte) []byte { return append(dst, "+ hello\r\n"...) }

func (e *echo) Serve(dst, line []byte) ([]byte, bool) {
	e.lines = append(e.lines, string(line))
	dst = append(dst, bytes.ToUpper(line)...)
	return append(dst, "\r\n"...), string(line) == "quit"
}

func (e *echo) End() { e.ends++ }

// readAll drains c through a small buffer until Read fails, returning the
// bytes and the error that stopped it.
func readAll(c *Conn) (string, error) {
	var got []byte
	buf := make([]byte, 3)
	for {
		n, err := c.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			return string(got), err
		}
	}
}

func write(t *testing.T, c *Conn, s string) {
	t.Helper()
	if n, err := c.Write([]byte(s)); err != nil || n != len(s) {
		t.Fatalf("Write(%q) = %d, %v", s, n, err)
	}
}

// TestPingPong: each request is served before Write returns, and its reply
// is the next thing Read returns, after the greeting.
func TestPingPong(t *testing.T) {
	var c Conn
	h := &echo{}
	c.Reset(h)
	write(t, &c, "ping\r\n")
	if got, err := readAll(&c); got != "+ hello\r\nPING\r\n" || !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("read %q, %v; want greeting and PING, then ErrWouldBlock", got, err)
	}
}

// TestWriteFramesLines: the handler gets one line per call, whatever the
// Write boundaries, with the LF and one CR before it removed.
func TestWriteFramesLines(t *testing.T) {
	var c Conn
	h := &echo{}
	c.Reset(h)
	write(t, &c, "one\r\ntwo\r\nthr")
	write(t, &c, "ee\r")
	write(t, &c, "\nbare\ncr\r\r\n\r\n")
	want := []string{"one", "two", "three", "bare", "cr\r", ""}
	if strings.Join(h.lines, "|") != strings.Join(want, "|") {
		t.Fatalf("handler saw %q, want %q", h.lines, want)
	}
	if got, _ := readAll(&c); got != "+ hello\r\nONE\r\nTWO\r\nTHREE\r\nBARE\r\nCR\r\r\n\r\n" {
		t.Fatalf("replies %q", got)
	}
}

// TestReadWithNothingPendingFails: a client waiting for a reply to a request
// it has not finished sending fails at once instead of blocking.
func TestReadWithNothingPendingFails(t *testing.T) {
	var c Conn
	c.Reset(&echo{})
	buf := make([]byte, 64)
	if n, err := c.Read(buf); err != nil || string(buf[:n]) != "+ hello\r\n" {
		t.Fatalf("greeting = %q, %v", buf[:n], err)
	}
	if n, err := c.Read(buf); n != 0 || !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("read with nothing pending = %d, %v; want ErrWouldBlock", n, err)
	}
	write(t, &c, "partial")
	if n, err := c.Read(buf); n != 0 || !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("read after a partial line = %d, %v; want ErrWouldBlock", n, err)
	}
}

// TestDrainThenEOF: after the request that ends the session, every reply
// already queued stays readable, then Read returns io.EOF and Write fails.
// Bytes written after that request are never served.
func TestDrainThenEOF(t *testing.T) {
	var c Conn
	h := &echo{}
	c.Reset(h)
	write(t, &c, "last\r\nquit\r\nignored\r\n")
	if h.ends != 1 {
		t.Fatalf("End called %d times at quit, want 1", h.ends)
	}
	if got, err := readAll(&c); got != "+ hello\r\nLAST\r\nQUIT\r\n" || err != io.EOF {
		t.Fatalf("drained %q, %v; want every reply, then io.EOF", got, err)
	}
	if _, err := c.Write([]byte("more\r\n")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write after quit: %v, want io.ErrClosedPipe", err)
	}
	if strings.Join(h.lines, "|") != "last|quit" {
		t.Fatalf("handler saw %q", h.lines)
	}
	c.Close()
	if h.ends != 1 {
		t.Fatalf("End called %d times after Close, want 1", h.ends)
	}
}

// TestCloseEndsSessionOnce: Close ends a session no request ended, exactly
// once however often it is called, and every later Read and Write fails.
func TestCloseEndsSessionOnce(t *testing.T) {
	var c Conn
	h := &echo{}
	c.Reset(h)
	write(t, &c, "hi\r\n")
	c.Close()
	c.Close()
	if h.ends != 1 {
		t.Fatalf("End called %d times, want 1", h.ends)
	}
	if _, err := c.Read(make([]byte, 8)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read after Close: %v, want io.ErrClosedPipe", err)
	}
	if _, err := c.Write([]byte("x\r\n")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write after Close: %v, want io.ErrClosedPipe", err)
	}
}

// TestResetReuse cycles one Conn through many sessions, the stuffing bot
// pool's pattern. Each session leaves an unread reply and a partial request
// behind; none of it reaches the next session, and a session still open at
// Reset is ended.
func TestResetReuse(t *testing.T) {
	var c Conn
	var prev *echo
	for i := 0; i < 100; i++ {
		h := &echo{}
		c.Reset(h)
		if prev != nil && prev.ends != 1 {
			t.Fatalf("session %d: previous session ended %d times, want 1", i, prev.ends)
		}
		write(t, &c, "ping\r\n")
		if got, err := readAll(&c); got != "+ hello\r\nPING\r\n" || !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("session %d read %q, %v", i, got, err)
		}
		write(t, &c, "unread\r\npart")
		if i%2 == 0 {
			c.Close()
		}
		if strings.Join(h.lines, "|") != "ping|unread" {
			t.Fatalf("session %d: handler saw %q", i, h.lines)
		}
		prev = h
	}
}

// serveOnPipe runs Serve(h) on one end of a net.Pipe and returns the other
// end and a channel that yields Serve's result. Deadlines turn a session
// that blocks into a failure.
func serveOnPipe(t *testing.T, h Handler) (net.Conn, chan error) {
	t.Helper()
	cli, srv := net.Pipe()
	t.Cleanup(func() { cli.Close() })
	deadline := time.Now().Add(10 * time.Second)
	cli.SetDeadline(deadline)
	srv.SetDeadline(deadline)
	served := make(chan error, 1)
	go func() { served <- Serve(srv, h); srv.Close() }()
	return cli, served
}

// expect reads len(want) bytes from c and compares them with want.
func expect(t *testing.T, c net.Conn, want string) {
	t.Helper()
	got := make([]byte, len(want))
	if _, err := io.ReadFull(c, got); err != nil || string(got) != want {
		t.Fatalf("read %q, %v; want %q", got, err, want)
	}
}

// TestServeFramesLikeConn: Serve frames a real connection's bytes as Conn
// frames its writes, whatever the write boundaries; it writes nothing
// while only part of a line has arrived (on net.Pipe an empty write would
// wait for a read the client is not making); and after the request that
// ends the session it ends the handler once, drops the bytes after that
// request, and returns nil.
func TestServeFramesLikeConn(t *testing.T) {
	h := &echo{}
	cli, served := serveOnPipe(t, h)
	expect(t, cli, "+ hello\r\n")
	for _, step := range []struct{ write, reply string }{
		{"one\r\ntw", "ONE\r\n"},
		{"o\r\nbare\ncr\r\r\n", "TWO\r\nBARE\r\nCR\r\r\n"},
		{"qu", ""},
		{"it\r\nignored\r\n", "QUIT\r\n"},
	} {
		if _, err := cli.Write([]byte(step.write)); err != nil {
			t.Fatalf("write %q: %v", step.write, err)
		}
		expect(t, cli, step.reply)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve = %v, want nil after quit", err)
	}
	if got := strings.Join(h.lines, "|"); got != "one|two|bare|cr\r|quit" || h.ends != 1 {
		t.Fatalf("handler saw %q and ended %d times", got, h.ends)
	}
}

// TestServeEndsOnClientClose: a client that hangs up mid-session makes
// Serve return the read error, and the session ends once.
func TestServeEndsOnClientClose(t *testing.T) {
	h := &echo{}
	cli, served := serveOnPipe(t, h)
	expect(t, cli, "+ hello\r\n")
	if _, err := cli.Write([]byte("hi\r\npartial")); err != nil {
		t.Fatal(err)
	}
	expect(t, cli, "HI\r\n")
	cli.Close()
	if err := <-served; err != io.EOF {
		t.Fatalf("Serve = %v, want io.EOF", err)
	}
	if h.ends != 1 || strings.Join(h.lines, "|") != "hi" {
		t.Fatalf("handler saw %q and ended %d times", h.lines, h.ends)
	}
}
