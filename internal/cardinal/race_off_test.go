//go:build !race

package cardinal

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
