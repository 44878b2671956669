// Package simtime keeps the names the benchmark's layer probe builds its
// tiers with. The modelled clock it used to hold is gone: tiers count their
// work and hw.Model turns counts into time. No product package imports
// simtime; it goes when the probe stops naming it.
package simtime

import "hps/internal/hw"

// Clock is a work counter. The constructors that still take a *Clock do not
// read it.
type Clock = hw.Counter

// NewClock returns an empty work counter.
func NewClock() *Clock { return hw.NewCounter() }
