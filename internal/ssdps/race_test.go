//go:build race

package ssdps

// The race detector makes sync.Pool drop items at random, so the pooled load
// scratch allocates under -race; the allocation checks run in normal builds
// only.
func init() { raceEnabled = true }
