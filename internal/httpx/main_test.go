package httpx

import (
	"testing"

	"tripwire/internal/leakcheck"
)

// TestMain fails the package if goroutines its tests started outlive them.
func TestMain(m *testing.M) { leakcheck.Main(m) }
