//go:build race

package memps

// The race detector makes sync.Pool drop items at random, so the SSD-PS's
// pooled scratch allocates under -race; the steady-state allocation check
// runs in normal builds only.
func init() { raceEnabled = true }
