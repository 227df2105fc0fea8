//go:build race

package fleet

// The race detector makes sync.Pool drop items at random, so
// allocation counts vary from run to run.
func init() { raceEnabled = true }
