//go:build race

package attacker

// raceEnabled reports a race-detector build. Its sync.Pool drops a share
// of what is put back, so allocation counts of pooled paths mean nothing.
const raceEnabled = true
