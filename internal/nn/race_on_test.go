//go:build race

package nn

// raceEnabled reports whether the race detector is active. Its
// instrumentation allocates, so allocation-count assertions only hold
// without it.
const raceEnabled = true
