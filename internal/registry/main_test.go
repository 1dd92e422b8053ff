package registry

import (
	"testing"

	"tripwire/internal/leakcheck"
)

// TestMain fails the package if goroutines its tests started outlive them:
// every study runner and every test HTTP server must have exited.
func TestMain(m *testing.M) { leakcheck.Main(m) }
