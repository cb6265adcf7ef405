//go:build !race

package nn

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
