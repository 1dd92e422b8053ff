// Package mailserv is the Tripwire-side mail server (paper §4.3.3). The
// email provider forwards every message delivered to a honey account here;
// the server retains a copy of all messages, recognizes account-verification
// messages, and surfaces verification links so the pipeline can click them.
package mailserv

import (
	"fmt"
	"io"
	"net/mail"
	"regexp"
	"strings"
	"sync"
	"time"
)

// Message is one received email.
type Message struct {
	From     string
	To       string
	Subject  string
	Body     string
	Received time.Time
}

// verifyLinkRe matches verification URLs in message bodies: a link whose
// path or query suggests confirmation. The pattern mirrors the paper's mail
// handler, which "processes all incoming messages to evaluate whether a
// message ... contains a validation link."
var verifyLinkRe = regexp.MustCompile(`https?://[^\s<>"]*(?:verify|confirm|activate|validate)[^\s<>"]*`)

// subjectVerifyRe recognizes verification-style subjects.
var subjectVerifyRe = regexp.MustCompile(`(?i)verify|confirm|activat|validate`)

// VerificationLink returns the first verification URL in the message body
// and whether one was found.
func (m *Message) VerificationLink() (string, bool) {
	link := verifyLinkRe.FindString(m.Body)
	return link, link != ""
}

// IsVerification reports whether the message looks like an account
// verification request (link in body, or verification-style subject plus
// any link).
func (m *Message) IsVerification() bool {
	if _, ok := m.VerificationLink(); ok {
		return true
	}
	return subjectVerifyRe.MatchString(m.Subject) && strings.Contains(m.Body, "http")
}

// Handler observes each message as it is delivered.
type Handler func(*Message)

// Server is the mail store. The zero value is not usable; construct with
// NewServer.
type Server struct {
	mu       sync.Mutex
	byRcpt   map[string][]*Message
	all      []*Message
	handlers []Handler
	// Now supplies receipt timestamps; defaults to time.Now.
	Now func() time.Time
}

// NewServer returns an empty mail server.
func NewServer() *Server {
	return &Server{
		byRcpt: make(map[string][]*Message),
		Now:    time.Now,
	}
}

// OnMessage registers a delivery observer. Handlers run synchronously, in
// registration order, during Deliver.
func (s *Server) OnMessage(h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers = append(s.handlers, h)
}

// Deliver stores a message and notifies handlers. It is the in-process
// delivery path; the SMTP listener calls it for network deliveries.
func (s *Server) Deliver(from, to, subject, body string) *Message {
	m := &Message{
		From:     from,
		To:       strings.ToLower(to),
		Subject:  subject,
		Body:     body,
		Received: s.now(),
	}
	s.mu.Lock()
	s.byRcpt[m.To] = append(s.byRcpt[m.To], m)
	s.all = append(s.all, m)
	handlers := append([]Handler(nil), s.handlers...)
	s.mu.Unlock()
	for _, h := range handlers {
		h(m)
	}
	return m
}

// DeliverRaw parses an RFC 822 message as received over SMTP and stores it
// for each recipient.
func (s *Server) DeliverRaw(envelopeFrom string, rcpts []string, raw string) error {
	msg, err := mail.ReadMessage(strings.NewReader(raw))
	if err != nil {
		return fmt.Errorf("mailserv: parsing message: %w", err)
	}
	subject := msg.Header.Get("Subject")
	// The body reads from raw, which cannot fail.
	b, _ := io.ReadAll(msg.Body)
	body := string(b)
	from := msg.Header.Get("From")
	if from == "" {
		from = envelopeFrom
	}
	for _, rcpt := range rcpts {
		s.Deliver(from, rcpt, subject, body)
	}
	return nil
}

func (s *Server) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

// Messages returns all messages delivered to rcpt, oldest first.
func (s *Server) Messages(rcpt string) []*Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	msgs := s.byRcpt[strings.ToLower(rcpt)]
	out := make([]*Message, len(msgs))
	copy(out, msgs)
	return out
}

// All returns every stored message, oldest first.
func (s *Server) All() []*Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Message, len(s.all))
	copy(out, s.all)
	return out
}

// Since returns the messages delivered after the first cursor ones, oldest
// first. A caller that remembers cursor + len(result) between calls drains
// the store incrementally without recopying its whole history; cursors past
// the end return nil. Messages are append-only, so a cursor never
// invalidates.
func (s *Server) Since(cursor int) []*Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cursor < 0 {
		cursor = 0
	}
	if cursor >= len(s.all) {
		return nil
	}
	out := make([]*Message, len(s.all)-cursor)
	copy(out, s.all[cursor:])
	return out
}

// Count returns the total number of stored messages.
func (s *Server) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.all)
}
