package memps

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/ps"
	"hps/internal/ssdps"
)

func benchMemPS(b *testing.B, lru, lfu int) *MemPS {
	b.Helper()
	ssd := hw.SSD{
		ReadBandwidthBytesPerSec:  6 << 30,
		WriteBandwidthBytesPerSec: 4 << 30,
		ReadLatency:               90 * time.Microsecond,
		WriteLatency:              25 * time.Microsecond,
		BlockBytes:                4096,
	}
	dev, err := blockio.NewDevice(b.TempDir(), ssd, hw.NewCounter())
	if err != nil {
		b.Fatal(err)
	}
	store, err := ssdps.Open(dev, ssdps.Config{Dim: 8, ParamsPerFile: 256})
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(Config{
		NodeID:     0,
		Dim:        8,
		Topology:   cluster.Topology{Nodes: 1, GPUsPerNode: 4},
		Store:      store,
		Clock:      hw.NewCounter(),
		LRUEntries: lru,
		LFUEntries: lfu,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchKeys(n int) []keys.Key {
	out := make([]keys.Key, n)
	for i := range out {
		out[i] = keys.Key(keys.Mix64(uint64(i)))
	}
	return out
}

// BenchmarkBatchPullHotBlock measures the MEM-PS hot path: assembling and
// pinning a fully cache-resident batch working set into a reused ValueBlock
// (PrepareInto), from the pre-deduplicated sorted key union batch.Keys hands
// the pull stage.
func BenchmarkBatchPullHotBlock(b *testing.B) {
	m := benchMemPS(b, 4096, 4096)
	working := keys.Dedup(benchKeys(1024))
	blk := ps.NewValueBlock(8)
	ws, err := m.PrepareInto(working, blk)
	if err != nil {
		b.Fatal(err)
	}
	m.CompleteBatch(ws)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws, err := m.PrepareInto(working, blk)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.CompleteBatch(ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepareOwnedInto measures the in-process pull of one owner: the
// cache-resident union of two nodes' 1,024-key working sets, 40% of each
// shared with the other, resolved and pinned once and copied into both
// nodes' blocks, then completed.
func BenchmarkPrepareOwnedInto(b *testing.B) {
	m := benchMemPS(b, 4096, 4096)
	const perNode, shared = 1024, 410
	all := benchKeys(2*perNode - shared)
	set0 := keys.Dedup(slices.Clone(all[:perNode]))
	set1 := keys.Dedup(slices.Clone(all[perNode-shared:]))
	union := keys.Dedup(slices.Clone(all))
	blocks, rows := blocksFor(8, set0, set1), ownedRows(union, set0, set1)
	batch := func() {
		ws, err := m.PrepareOwnedInto(union, blocks, rows)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.CompleteBatch(&ws); err != nil {
			b.Fatal(err)
		}
	}
	batch() // first references
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch()
	}
}

// BenchmarkBatchPullSSD measures the cold path: every batch pull misses the
// cache and reloads its working set from SSD-PS parameter files.
func BenchmarkBatchPullSSD(b *testing.B) {
	m := benchMemPS(b, 2048, 2048)
	working := benchKeys(1024)
	blk := ps.NewValueBlock(8)
	// Materialize the parameters on disk, then evict them from memory.
	ws, err := m.PrepareInto(working, blk)
	if err != nil {
		b.Fatal(err)
	}
	m.CompleteBatch(ws)
	if _, err := m.Evict(nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws, err := m.PrepareInto(working, blk)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.CompleteBatch(ws); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := m.Evict(nil); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkOwnershipCheck is the ownership test every MEM-PS call makes per
// key, two ways: Topology.HoldsKey, which loads the ring for every key, and
// the holder the MEM-PS takes once per call.
func BenchmarkOwnershipCheck(b *testing.B) {
	ks := benchKeys(4096)
	held := 0
	for _, nodes := range []int{1, 2} {
		topo := cluster.Topology{Nodes: nodes, GPUsPerNode: 1}
		b.Run(fmt.Sprintf("nodes=%d/ring-per-key", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if topo.HoldsKey(ks[i&4095], 0) {
					held++
				}
			}
		})
		b.Run(fmt.Sprintf("nodes=%d/ring-per-call", nodes), func(b *testing.B) {
			m := &MemPS{cfg: Config{NodeID: 0, Topology: topo}}
			h := m.holder()
			for i := 0; i < b.N; i++ {
				if h.holds(ks[i&4095]) {
					held++
				}
			}
		})
	}
	if held == 0 {
		b.Fatal("no key is held")
	}
}
