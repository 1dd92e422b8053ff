package sim

import (
	"runtime"
	"strings"
	"testing"

	"tripwire/internal/mailserv"
)

// goroutineHeader returns the calling goroutine's "goroutine N" header
// from runtime.Stack.
func goroutineHeader() string {
	buf := make([]byte, 64)
	header, _, _ := strings.Cut(string(buf[:runtime.Stack(buf, false)]), " [")
	return header
}

// TestForwardRunsOnDeliveringGoroutine: Tripwire's mail server stores a
// forwarded message on the goroutine that called Provider.Deliver, and a
// message the server refuses fails alone: the next one goes through.
func TestForwardRunsOnDeliveringGoroutine(t *testing.T) {
	p := NewPilot(SmallConfig())
	honey := "forwardtest@" + ProviderDomain
	if err := p.Provider.CreateAccount(honey, "Forward Test", "Website1"); err != nil {
		t.Fatal(err)
	}
	if err := p.Provider.SetForwarding(honey, forwardAddress(honey)); err != nil {
		t.Fatal(err)
	}
	var stored []string
	p.Mail.OnMessage(func(*mailserv.Message) { stored = append(stored, goroutineHeader()) })

	// Over the SMTP server's 1 MiB cap: the server refuses it with 552.
	big := strings.Repeat("spam and eggs\n", 80000)
	if err := p.Provider.Deliver("noreply@site.test", honey, "Too big", big); err == nil {
		t.Fatal("a message over the size cap was forwarded")
	}
	if err := p.Provider.Deliver("noreply@site.test", honey, "Please verify", "http://site.test/verify?token=1\n"); err != nil {
		t.Fatalf("the forward after a refused one failed: %v", err)
	}
	msgs := p.Mail.Messages(forwardAddress(honey))
	if len(msgs) != 1 || msgs[0].Subject != "Please verify" {
		t.Fatalf("the mail server stored %d messages: %+v", len(msgs), msgs)
	}
	if len(stored) != 1 || stored[0] != goroutineHeader() {
		t.Fatalf("the message was stored on %q, Deliver ran on %s", stored, goroutineHeader())
	}
}

// TestForwardAllocs pins what one forwarded message allocates: 15 objects
// in mailserv.Server.DeliverRaw (net/mail's parse and the stored Message)
// and 22 for its SMTP session (the conn and server session, the buffers of
// the conn, client and server, and the sender, recipient and text the
// server hands DeliverRaw). The persistent session over net.Pipe that this
// replaced allocated 72 a message.
func TestForwardAllocs(t *testing.T) {
	srv := mailserv.NewSMTPServer(mailserv.NewServer())
	body := "Welcome to Site Name!\r\n\r\nPlease confirm your email address by clicking the link below:\r\nhttp://site0001.test/verify?token=abcdef0123456789\r\n\r\nIf you did not register, ignore this message.\r\n"
	got := testing.AllocsPerRun(200, func() {
		if err := forwardMail(srv, "noreply@site0001.test", "x1234@"+RelayDomain, "Please verify your account at Site Name", body); err != nil {
			t.Fatal(err)
		}
	})
	if got > 37 {
		t.Errorf("a forwarded message allocates %.1f objects, want at most 37", got)
	}
}
