//go:build !race

package attacker

const raceEnabled = false
