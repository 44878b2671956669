//go:build race

package hbmps

// The race detector makes sync.Pool drop items at random, so the pooled
// scratch of the batched calls allocates under -race; the allocation checks
// run in normal builds only.
func init() { raceEnabled = true }
