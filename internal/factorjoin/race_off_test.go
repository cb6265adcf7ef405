//go:build !race

package factorjoin

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
