// Package ps holds what the parameter-server tiers share: the flat
// ValueBlock every batch moves through (Algorithm 1 moves a batch's working
// set as one union and its merged deltas as one set), its wire encoding, the
// pull and push request shapes, and the uniform statistics every tier keeps
// (Recorder).
//
// The tiers have no common interface. The trainer drives the HBM-PS
// (internal/hbmps) and the MEM-PS (internal/memps) through its owner, a
// shard server serves a MEM-PS through cluster.Shard, and only the MEM-PS
// reads and writes the SSD-PS (internal/ssdps).
package ps

import (
	"sync"

	"hps/internal/keys"
)

// PullRequest is a batched, key-partitioned read request against one tier
// (the HBM-PS's PullInto).
type PullRequest struct {
	// Shard identifies the requesting shard within the tier's partition
	// policy: the GPU id of the worker, for the HBM-PS.
	Shard int
	// Keys are the parameters to read.
	Keys []keys.Key
}

// NoShard is the Shard value for requests that are not issued on behalf of a
// particular shard.
const NoShard = -1

// PushBlockRequest is a batched write request against one tier: a block of
// per-key deltas (weight, optimizer-state and reference-count increments).
type PushBlockRequest struct {
	// Shard identifies the pushing shard; see PullRequest.Shard.
	Shard int
	// Block carries the parallel key/delta rows. Rows with Present false are
	// skipped, which lets callers mask a reused block.
	Block *ValueBlock
}

// Stats is the uniform statistics block every tier maintains (via Recorder).
// Tiers may expose richer tier-specific statistics alongside it.
type Stats struct {
	// Pulls / Pushes / Evictions count operations.
	Pulls, Pushes, Evictions int64
	// KeysPulled / KeysPushed / KeysEvicted count parameters moved.
	KeysPulled, KeysPushed, KeysEvicted int64
}

// Add returns the element-wise sum of two stats blocks.
func (s Stats) Add(other Stats) Stats {
	s.Pulls += other.Pulls
	s.Pushes += other.Pushes
	s.Evictions += other.Evictions
	s.KeysPulled += other.KeysPulled
	s.KeysPushed += other.KeysPushed
	s.KeysEvicted += other.KeysEvicted
	return s
}

// Recorder is the shared implementation of the uniform statistics block.
// Tiers embed it and call the Record methods from their pull/push/evict
// paths, and report it through their TierStats. Recorder is safe for
// concurrent use.
type Recorder struct {
	mu sync.Mutex
	s  Stats
}

// RecordPull accounts one pull of n keys.
func (r *Recorder) RecordPull(n int) {
	r.mu.Lock()
	r.s.Pulls++
	r.s.KeysPulled += int64(n)
	r.mu.Unlock()
}

// RecordPush accounts one push of n keys.
func (r *Recorder) RecordPush(n int) {
	r.mu.Lock()
	r.s.Pushes++
	r.s.KeysPushed += int64(n)
	r.mu.Unlock()
}

// RecordEvict accounts one eviction pass demoting n keys.
func (r *Recorder) RecordEvict(n int) {
	r.mu.Lock()
	r.s.Evictions++
	r.s.KeysEvicted += int64(n)
	r.mu.Unlock()
}

// TierStats returns a snapshot of the recorded statistics.
func (r *Recorder) TierStats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.s
}

// TierInfo pairs a tier's name with its uniform statistics, for reports.
type TierInfo struct {
	Name  string
	Stats Stats
}
