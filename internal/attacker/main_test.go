package attacker

import (
	"testing"

	"tripwire/internal/leakcheck"
)

// TestMain fails the package if goroutines its tests started outlive them:
// the cracker's fan-out and every stuffing session must have exited.
func TestMain(m *testing.M) { leakcheck.Main(m) }
