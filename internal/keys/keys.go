// Package keys defines the sparse-parameter key type and the hashing and
// sharding helpers shared by every tier of the hierarchical parameter server.
//
// A CTR model's sparse features are identified by 64-bit keys (the paper's
// models contain up to 10^11 of them). Keys are sharded twice: once across
// nodes (MEM-PS / SSD-PS shards, Section 5), by the rendezvous hashing of
// cluster.Ring over Hash, and once across the GPUs of a node (HBM-PS
// partitions, Section 4.1), by HashShard.
package keys

import (
	"slices"
)

// Key identifies a single sparse parameter (one embedding row).
type Key uint64

// Mix64 is a SplitMix64 finalizer used to turn raw feature identifiers into
// well-distributed keys and to derive secondary hashes. It is a bijection on
// 64-bit integers, so distinct features never collide.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash returns a well-distributed 64-bit hash of the key, suitable for
// open-addressing probe sequences.
func (k Key) Hash() uint64 { return Mix64(uint64(k)) }

// Shard maps the key to one of n shards using the paper's modulo policy
// (Section 5, Appendix C.1). No product path places keys by it any more;
// the benchmark's layer probe times PartitionByShard. Shard returns 0 when
// n <= 1.
func (k Key) Shard(n int) int {
	if n <= 1 {
		return 0
	}
	return int(uint64(k) % uint64(n))
}

// HashShard maps the key to one of n shards using the mixed hash rather than
// the raw key. It is used when the raw key space may itself be structured
// (e.g. sequential feature ids), which would unbalance plain modulo.
func (k Key) HashShard(n int) int {
	if n <= 1 {
		return 0
	}
	return int(k.Hash() % uint64(n))
}

// PartitionByShard splits ks into n groups by the modulo policy, preserving
// the input order within each group. The result always has length n.
func PartitionByShard(ks []Key, n int) [][]Key {
	if n < 1 {
		n = 1
	}
	out := make([][]Key, n)
	for _, k := range ks {
		s := k.Shard(n)
		out[s] = append(out[s], k)
	}
	return out
}

// Dedup sorts and deduplicates ks in place — the caller's backing array is
// mutated and no copy is ever made — returning the shortened slice. The
// union of referenced parameters of a batch (Algorithm 1 line 3-4) is
// produced this way; it runs once per shard per batch on the hot path, so it
// uses the non-reflective slices.Sort and, when the input is already sorted
// (a batch's key union is re-deduplicated at several tiers), skips the sort
// entirely and degenerates to one compaction sweep.
func Dedup(ks []Key) []Key {
	if len(ks) < 2 {
		return ks
	}
	if !slices.IsSorted(ks) {
		slices.Sort(ks)
	}
	w := 1
	for i := 1; i < len(ks); i++ {
		if ks[i] != ks[i-1] {
			ks[w] = ks[i]
			w++
		}
	}
	return ks[:w]
}

// SortedUnique reports whether ks is strictly increasing — i.e. already in
// Dedup's output form. Hot paths check it before touching a key set they do
// not own: input already deduplicated upstream (a batch's key union flows
// through several tiers) is used as-is, and only arbitrary caller-supplied
// key sets pay for a defensive copy plus Dedup.
func SortedUnique(ks []Key) bool {
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			return false
		}
	}
	return true
}
