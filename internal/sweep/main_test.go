package sweep

import (
	"testing"

	"tripwire/internal/leakcheck"
)

// TestMain fails the package if goroutines its tests started outlive them:
// the seed fan-out and the progress writer must both have exited.
func TestMain(m *testing.M) { leakcheck.Main(m) }
