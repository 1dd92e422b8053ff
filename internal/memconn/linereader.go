package memconn

import (
	"bytes"
	"io"
	"net"
)

var crlf = []byte("\r\n")

// LineReader reads CRLF lines plus fixed-size literals from a fixed,
// reusable buffer; returned slices alias the buffer and are valid until
// the next read call. The zero value plus Reset is ready to use. The IMAP,
// POP3 and SMTP clients read their replies through one. It frames at CRLF,
// not at LF as a Handler's requests are framed, because a reply line may
// carry a bare LF (a POP3 RETR body line can).
type LineReader struct {
	conn net.Conn
	buf  []byte
	r, w int
}

// Reset rebinds the reader to conn, keeping its buffer.
func (l *LineReader) Reset(conn net.Conn) {
	l.conn = conn
	l.r, l.w = 0, 0
	if l.buf == nil {
		l.buf = make([]byte, 4096)
	}
}

// fill compacts the buffer and reads more bytes, growing only when a
// single line or literal outsizes the buffer.
func (l *LineReader) fill() error {
	if l.r > 0 {
		n := copy(l.buf, l.buf[l.r:l.w])
		l.r, l.w = 0, n
	}
	if l.w == len(l.buf) {
		bigger := make([]byte, 2*len(l.buf))
		copy(bigger, l.buf[:l.w])
		l.buf = bigger
	}
	n, err := l.conn.Read(l.buf[l.w:])
	if n > 0 {
		l.w += n
		return nil
	}
	if err != nil {
		return err
	}
	return io.ErrNoProgress
}

// ReadLine returns the next line without its CRLF.
func (l *LineReader) ReadLine() ([]byte, error) {
	for {
		if i := bytes.Index(l.buf[l.r:l.w], crlf); i >= 0 {
			line := l.buf[l.r : l.r+i]
			l.r += i + 2
			return line, nil
		}
		if err := l.fill(); err != nil {
			return nil, err
		}
	}
}

// ReadN returns exactly n bytes.
func (l *LineReader) ReadN(n int) ([]byte, error) {
	for l.w-l.r < n {
		if err := l.fill(); err != nil {
			return nil, err
		}
	}
	out := l.buf[l.r : l.r+n]
	l.r += n
	return out, nil
}
