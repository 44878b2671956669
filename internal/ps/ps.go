// Package ps defines the common parameter-server contract of the hierarchy's
// cached tiers — HBM-PS (internal/hbmps) and MEM-PS (internal/memps) — and of
// a remote MEM-PS reached over the wire (cluster.RemoteTier).
//
// A tier stores sparse parameters keyed by keys.Key and serves three batched
// operations, each over a flat ValueBlock (Algorithm 1 moves a batch's working
// set as one union and its merged deltas as one set):
//
//   - PullInto: read the current values of a key set into a block,
//   - PushBlock: merge a block of per-key deltas into the stored values,
//   - Evict: demote keys out of the tier, toward the tier below it.
//
// Recorder centralizes the uniform statistics every tier reports; the SSD-PS
// (internal/ssdps), which only the MEM-PS reads and writes, keeps one too.
package ps

import (
	"sync"
	"time"

	"hps/internal/keys"
)

// PullRequest is a batched, key-partitioned read request against one tier.
type PullRequest struct {
	// Shard identifies the requesting shard within the tier's partition
	// policy — the GPU id for the HBM-PS, the node id for the MEM-PS. Tiers
	// without internal sharding ignore it; use NoShard when not applicable.
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

// Tier is the contract every parameter-server tier implements.
type Tier interface {
	// Name identifies the tier ("hbm-ps", "mem-ps", "remote[N]").
	Name() string
	// PullInto resets dst and writes copies of the current values of
	// req.Keys into it, one row per requested key in request order
	// (duplicates included). Missing keys follow the tier's policy: an
	// absent, zeroed row, a materialized value, or an error. Rows never alias
	// tier storage.
	PullInto(req PullRequest, dst *ValueBlock) error
	// PushBlock merges the request's present delta rows into the stored
	// values; duplicate rows accumulate. Rows for keys the tier does not hold
	// are handled tier-specifically (created or ignored); PushBlock reports
	// only transport or storage failures.
	PushBlock(req PushBlockRequest) error
	// Evict demotes the given keys out of this tier, returning how many were
	// actually held and demoted. A nil slice evicts everything evictable.
	Evict(ks []keys.Key) (int, error)
	// TierStats returns the uniform cumulative statistics of the tier.
	TierStats() Stats
}

// Stats is the uniform statistics block every tier maintains (via Recorder).
// Tiers may expose richer tier-specific statistics alongside it.
type Stats struct {
	// Pulls / Pushes / Evictions count operations.
	Pulls, Pushes, Evictions int64
	// KeysPulled / KeysPushed / KeysEvicted count parameters moved.
	KeysPulled, KeysPushed, KeysEvicted int64
	// PullTime / PushTime are the cumulative modelled durations of the two
	// hot-path operations (the per-component breakdown of Fig 4).
	PullTime, PushTime time.Duration
}

// Add returns the element-wise sum of two stats blocks.
func (s Stats) Add(other Stats) Stats {
	s.Pulls += other.Pulls
	s.Pushes += other.Pushes
	s.Evictions += other.Evictions
	s.KeysPulled += other.KeysPulled
	s.KeysPushed += other.KeysPushed
	s.KeysEvicted += other.KeysEvicted
	s.PullTime += other.PullTime
	s.PushTime += other.PushTime
	return s
}

// Recorder is the shared implementation of the uniform statistics block.
// Tiers embed it (by pointer or value) and call the Record methods from
// their pull/push/evict paths; TierStats then satisfies the Tier interface.
// Recorder is safe for concurrent use.
type Recorder struct {
	mu sync.Mutex
	s  Stats
}

// RecordPull accounts one pull of n keys with the given modelled duration.
func (r *Recorder) RecordPull(n int, d time.Duration) {
	r.mu.Lock()
	r.s.Pulls++
	r.s.KeysPulled += int64(n)
	r.s.PullTime += d
	r.mu.Unlock()
}

// RecordPush accounts one push of n keys with the given modelled duration.
func (r *Recorder) RecordPush(n int, d time.Duration) {
	r.mu.Lock()
	r.s.Pushes++
	r.s.KeysPushed += int64(n)
	r.s.PushTime += d
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
