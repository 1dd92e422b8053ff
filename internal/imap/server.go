package imap

import (
	"bytes"
	"net"
	"net/netip"
	"strconv"

	"tripwire/internal/memconn"
)

// Server speaks IMAP4rev1 (subset) over accepted connections, delegating
// authentication and mailbox access to a Backend.
type Server struct {
	Backend Backend
	// Greeting is announced on connect.
	Greeting string
}

// NewServer returns a Server for backend.
func NewServer(backend Backend) *Server {
	return &Server{Backend: backend, Greeting: "tripwire-sim IMAP4rev1 ready"}
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
			_ = s.ServeConn(conn, remoteAddr(conn))
		}()
	}
}

func remoteAddr(conn net.Conn) netip.Addr {
	if ap, err := netip.ParseAddrPort(conn.RemoteAddr().String()); err == nil {
		return ap.Addr()
	}
	return netip.Addr{}
}

// ServeConn runs one IMAP session. remote is the client address used for
// login logging; for proxied connections callers pass the proxy exit IP.
func (s *Server) ServeConn(conn net.Conn, remote netip.Addr) error {
	var ss ServerSession
	ss.Reset(s, remote)
	return memconn.Serve(conn, &ss)
}

// ServerSession is the server half of one IMAP session, a memconn.Handler
// driven one request line at a time: ServeConn drives one over a network
// connection, and a memconn.Conn drives one inline on its caller's
// goroutine. Its buffers survive Reset, so one ServerSession can serve
// many sessions in turn.
type ServerSession struct {
	srv      *Server
	remote   netip.Addr
	sess     Session
	selected bool
	fields   [][]byte
}

// Reset ends the session if it is still open and starts a fresh one served
// by s for a client at remote, whose address the backend logs on login.
func (ss *ServerSession) Reset(s *Server, remote netip.Addr) {
	ss.End()
	ss.srv, ss.remote, ss.selected = s, remote, false
}

// Greet appends the server greeting to dst.
func (ss *ServerSession) Greet(dst []byte) []byte {
	dst = append(dst, "* OK "...)
	return reply(append(dst, ss.srv.Greeting...))
}

// End logs the backend session out, if a login succeeded. Idempotent.
func (ss *ServerSession) End() {
	if ss.sess != nil {
		_ = ss.sess.Logout()
		ss.sess = nil
	}
}

// reply terminates a response built onto dst; multi-line responses embed
// their interior CRLFs.
func reply(dst []byte) []byte { return append(dst, '\r', '\n') }

// tagged appends "<tag> <rest>" CRLF to dst.
func tagged(dst, tag []byte, rest string) []byte {
	dst = append(dst, tag...)
	dst = append(dst, ' ')
	return reply(append(dst, rest...))
}

// Serve handles one request line, as memconn frames it, and appends the
// replies to dst. done reports LOGOUT: the session is over, and the caller
// should read no further requests.
func (ss *ServerSession) Serve(dst, line []byte) (out []byte, done bool) {
	ss.fields = splitQuoted(line, ss.fields)
	if len(ss.fields) < 2 {
		return reply(append(dst, "* BAD malformed command"...)), false
	}
	tag, verb, args := ss.fields[0], ss.fields[1], ss.fields[2:]
	switch {
	case verbIs(verb, "CAPABILITY"):
		dst = append(dst, "* CAPABILITY IMAP4rev1 LOGINDISABLED-NOT\r\n"...)
		return tagged(dst, tag, "OK CAPABILITY completed"), false
	case verbIs(verb, "LOGIN"):
		if len(args) < 2 {
			return tagged(dst, tag, "BAD LOGIN expects user and password"), false
		}
		// The Backend interface takes strings; these two conversions
		// are the session's only parse-side allocations.
		user, pass := string(unquote(args[0])), string(unquote(args[1]))
		newSess, lerr := ss.srv.Backend.Login(user, pass, ss.remote)
		status := "NO LOGIN failed"
		switch {
		case lerr == nil:
			ss.sess = newSess
			status = "OK LOGIN completed"
		case lerr == ErrThrottled:
			status = "NO [UNAVAILABLE] too many attempts"
		case lerr == ErrAccountFrozen:
			status = "NO [CONTACTADMIN] account unavailable"
		}
		return tagged(dst, tag, status), false
	case verbIs(verb, "SELECT"):
		if ss.sess == nil {
			return tagged(dst, tag, "NO not authenticated"), false
		}
		box := "INBOX"
		if len(args) > 0 {
			box = string(unquote(args[0]))
		}
		n, serr := ss.sess.Select(box)
		if serr != nil {
			return tagged(dst, tag, "NO no such mailbox"), false
		}
		ss.selected = true
		dst = append(dst, "* "...)
		dst = strconv.AppendInt(dst, int64(n), 10)
		dst = append(dst, " EXISTS\r\n* OK [UIDVALIDITY 1] UIDs valid\r\n"...)
		return tagged(dst, tag, "OK [READ-ONLY] SELECT completed"), false
	case verbIs(verb, "FETCH"):
		if ss.sess == nil || !ss.selected {
			return tagged(dst, tag, "NO no mailbox selected"), false
		}
		if len(args) < 1 {
			return tagged(dst, tag, "BAD FETCH expects sequence set"), false
		}
		lo, hi, ok := parseSeqSet(args[0])
		if !ok {
			return tagged(dst, tag, "BAD bad sequence set"), false
		}
		for seq := lo; seq <= hi; seq++ {
			m, ferr := ss.sess.Fetch(seq)
			if ferr != nil {
				break
			}
			litLen := len("From: ") + len(m.From) + len("\r\nSubject: ") + len(m.Subject) + len("\r\n\r\n") + len(m.Body)
			dst = append(dst, "* "...)
			dst = strconv.AppendInt(dst, int64(seq), 10)
			dst = append(dst, " FETCH (BODY[] {"...)
			dst = strconv.AppendInt(dst, int64(litLen), 10)
			dst = append(dst, "}\r\nFrom: "...)
			dst = append(dst, m.From...)
			dst = append(dst, "\r\nSubject: "...)
			dst = append(dst, m.Subject...)
			dst = append(dst, "\r\n\r\n"...)
			dst = append(dst, m.Body...)
			dst = reply(append(dst, ')'))
		}
		return tagged(dst, tag, "OK FETCH completed"), false
	case verbIs(verb, "NOOP"):
		return tagged(dst, tag, "OK NOOP completed"), false
	case verbIs(verb, "LOGOUT"):
		dst = append(dst, "* BYE logging out\r\n"...)
		return tagged(dst, tag, "OK LOGOUT completed"), true
	default:
		return tagged(dst, tag, "BAD unsupported command"), false
	}
}

// verbIs reports whether verb equals want (an upper-case literal),
// ASCII-case-insensitively.
func verbIs(verb []byte, want string) bool {
	if len(verb) != len(want) {
		return false
	}
	for i := 0; i < len(verb); i++ {
		c := verb[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != want[i] {
			return false
		}
	}
	return true
}

// splitQuoted splits line into fields respecting quoted strings: quotes
// and escapes stay in the field, and inside quotes a backslash escapes the
// byte after it, so an escaped quote does not end the field. Fields alias
// line; dst is reused.
func splitQuoted(line []byte, dst [][]byte) [][]byte {
	dst = dst[:0]
	inQ := false
	start := -1
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '\\' && inQ:
			i++
		case c == '"':
			inQ = !inQ
			if start < 0 {
				start = i
			}
		case c == ' ' && !inQ:
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		default:
			if start < 0 {
				start = i
			}
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// unquote returns a quoted field's content with its escapes removed, and
// any other field as is. It removes escapes in place, rewriting the request
// line the field aliases.
func unquote(s []byte) []byte {
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return s
	}
	s = s[1 : len(s)-1]
	i := bytes.IndexByte(s, '\\')
	if i < 0 {
		return s
	}
	out := s[:i]
	for ; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		out = append(out, s[i])
	}
	return out
}

// parseSeqSet handles "n" and "n:m" (and "n:*" as n:large).
func parseSeqSet(s []byte) (lo, hi int, ok bool) {
	if i := bytes.IndexByte(s, ':'); i >= 0 {
		a, ok1 := atoiBytes(s[:i])
		rest := s[i+1:]
		if len(rest) == 1 && rest[0] == '*' {
			return a, 1 << 30, ok1 && a > 0
		}
		b, ok2 := atoiBytes(rest)
		return a, b, ok1 && ok2 && a > 0 && b >= a
	}
	n, ok1 := atoiBytes(s)
	return n, n, ok1 && n > 0
}
