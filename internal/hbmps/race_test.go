//go:build race

package hbmps

// Allocation counts do not hold under the race detector, which drops
// sync.Pool items at random and instruments memory, so the allocation checks
// run in normal builds only.
func init() { raceEnabled = true }
