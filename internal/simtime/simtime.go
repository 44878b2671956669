// Package simtime provides logical-time accounting for the simulated
// hardware resources used throughout the hierarchical parameter server.
//
// The paper's evaluation runs on hardware this reproduction does not have
// (GPUs, NVLink, RDMA NICs, NVMe arrays). Every module that would consume
// such a resource instead reports the modelled duration of the operation to
// a Clock. Experiments then read per-resource and per-stage totals from the
// Clock to regenerate the paper's time-distribution figures.
//
// A Clock is safe for concurrent use.
package simtime

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Resource identifies a hardware resource whose time is accounted separately.
type Resource string

// Resources tracked by the simulator. A Clock accepts arbitrary Resource
// values; these constants cover the hardware described in the paper's
// experimental setup (Section 7).
const (
	ResourceGPU     Resource = "gpu"     // GPU kernel execution (dense training, working-set ops)
	ResourceHBM     Resource = "hbm"     // GPU high-bandwidth memory traffic
	ResourceNVLink  Resource = "nvlink"  // intra-node GPU interconnect
	ResourcePCIe    Resource = "pcie"    // CPU<->GPU transfers
	ResourceRDMA    Resource = "rdma"    // inter-node GPU RDMA (RoCE)
	ResourceNetwork Resource = "network" // inter-node CPU Ethernet (MEM-PS remote pulls, MPI)
	ResourceSSD     Resource = "ssd"     // SSD reads/writes (SSD-PS)
	ResourceHDFS    Resource = "hdfs"    // training-data streaming
	ResourceCPU     Resource = "cpu"     // CPU compute (partitioning, MPI baseline training)
)

// Clock accumulates modelled time per resource and per named span.
//
// The zero value is not ready for use; construct with NewClock.
type Clock struct {
	mu    sync.Mutex
	res   map[Resource]time.Duration
	spans map[string]time.Duration
}

// NewClock returns an empty clock.
func NewClock() *Clock {
	return &Clock{
		res:   make(map[Resource]time.Duration),
		spans: make(map[string]time.Duration),
	}
}

// Add charges d against resource r. Negative durations are ignored.
func (c *Clock) Add(r Resource, d time.Duration) {
	if c == nil || d <= 0 {
		return
	}
	c.mu.Lock()
	c.res[r] += d
	c.mu.Unlock()
}

// AddSpan charges d against the named span (e.g. a pipeline stage) in
// addition to any per-resource accounting done by the caller.
func (c *Clock) AddSpan(name string, d time.Duration) {
	if c == nil || d <= 0 {
		return
	}
	c.mu.Lock()
	c.spans[name] += d
	c.mu.Unlock()
}

// Total returns the accumulated time for resource r.
func (c *Clock) Total(r Resource) time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.res[r]
}

// Span returns the accumulated time for the named span.
func (c *Clock) Span(name string) time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spans[name]
}

// Snapshot returns a copy of all per-resource totals.
func (c *Clock) Snapshot() map[Resource]time.Duration {
	out := make(map[Resource]time.Duration)
	if c == nil {
		return out
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for r, d := range c.res {
		out[r] = d
	}
	return out
}

// Spans returns a copy of all named-span totals.
func (c *Clock) Spans() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if c == nil {
		return out
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for n, d := range c.spans {
		out[n] = d
	}
	return out
}

// Reset clears all accumulated time.
func (c *Clock) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.res = make(map[Resource]time.Duration)
	c.spans = make(map[string]time.Duration)
	c.mu.Unlock()
}

// Merge adds every total from other into c.
func (c *Clock) Merge(other *Clock) {
	if c == nil || other == nil {
		return
	}
	snap := other.Snapshot()
	spans := other.Spans()
	c.mu.Lock()
	defer c.mu.Unlock()
	for r, d := range snap {
		c.res[r] += d
	}
	for n, d := range spans {
		c.spans[n] += d
	}
}

// String renders the clock as a deterministic, human-readable summary.
func (c *Clock) String() string {
	if c == nil {
		return "<nil clock>"
	}
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for r := range snap {
		names = append(names, string(r))
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%v", n, snap[Resource(n)])
	}
	return b.String()
}

// Duration converts seconds (as produced by hardware cost models) to a
// time.Duration, saturating rather than overflowing for absurd inputs.
func Duration(seconds float64) time.Duration {
	if seconds <= 0 {
		return 0
	}
	const maxSeconds = float64(1<<62) / float64(time.Second)
	if seconds > maxSeconds {
		return time.Duration(1 << 62)
	}
	return time.Duration(seconds * float64(time.Second))
}

// Seconds converts a duration to float seconds.
func Seconds(d time.Duration) float64 {
	return float64(d) / float64(time.Second)
}
