package hook

import (
	"testing"

	"tripwire/internal/leakcheck"
)

// TestMain fails the package if goroutines its tests started outlive them:
// every endpoint's delivery worker must have exited after Close.
func TestMain(m *testing.M) { leakcheck.Main(m) }
