package simclock

import (
	"testing"

	"tripwire/internal/leakcheck"
)

// TestMain fails the package if goroutines its tests started outlive them:
// every Epochs must be closed, releasing its persistent pool helpers.
func TestMain(m *testing.M) { leakcheck.Main(m) }
