package leakcheck

import (
	"bytes"
	"os"
	"os/signal"
	"testing"
)

// The package checks itself: the signal loop TestVerdicts starts is still
// running when Main counts.
func TestMain(m *testing.M) { Main(m) }

// TestVerdicts: the goroutine signal.Notify starts does not count against
// the tests, and a goroutine the package's own code leaves blocked does.
func TestVerdicts(t *testing.T) {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt)
	defer signal.Stop(c)
	release := make(chan struct{})
	defer close(release)
	go func() { <-release }()

	_, stacks := running()
	var loops, blocked int
	for _, g := range bytes.Split(stacks, []byte("\n\n")) {
		switch {
		case bytes.Contains(g, []byte("\nos/signal.loop(")):
			loops++
			if counts(g) {
				t.Errorf("signal loop counted as a leak:\n%s", g)
			}
		case bytes.Contains(g, []byte("\ntripwire/internal/leakcheck.TestVerdicts.func1(")):
			blocked++
			if !counts(g) {
				t.Errorf("blocked goroutine not counted:\n%s", g)
			}
		}
	}
	if loops == 0 || blocked == 0 {
		t.Fatalf("found %d signal loops and %d blocked goroutines:\n%s", loops, blocked, stacks)
	}
}
