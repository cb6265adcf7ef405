package engine

// Every test build of the package poisons released scratch vectors, so a
// site that reads memory it did not write, or a result that aliases a
// released vector, fails the test that runs it.
func init() { poisonReleased = true }
