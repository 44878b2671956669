package trainer

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/hw"
	"hps/internal/interconnect"
	"hps/internal/keys"
	"hps/internal/memps"
	"hps/internal/ps"
	"hps/internal/simtime"
	"hps/internal/ssdps"
)

// sameBlock reports whether a and b hold the same rows, bit for bit.
func sameBlock(a, b *ps.ValueBlock) bool {
	return slices.Equal(a.Keys, b.Keys) && sameBits(a.Weights, b.Weights) && sameBits(a.G2Sum, b.G2Sum) &&
		slices.Equal(a.Freq, b.Freq) && slices.Equal(a.Present, b.Present)
}

// referenceCluster builds the MEM-PS of every node of cfg's topology the way
// a node that assembles its own working set sees them: wired through a
// LocalTransport, each pulling its peer-owned keys from their owners
// (PrepareInto). It is the oracle stagePull's per-owner pass is held to.
func referenceCluster(t *testing.T, cfg Config) []*memps.MemPS {
	t.Helper()
	cfg = cfg.withDefaults()
	dim := cfg.Spec.EmbeddingDim
	lt := cluster.NewLocalTransport(dim)
	out := make([]*memps.MemPS, cfg.Topology.Nodes)
	for id := range out {
		clock := simtime.NewClock()
		dev, err := blockio.NewDevice(t.TempDir(), cfg.Profile.SSD, clock)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dev.Close() })
		store, err := ssdps.Open(dev, ssdps.Config{Dim: dim, ParamsPerFile: cfg.ParamsPerFile})
		if err != nil {
			t.Fatal(err)
		}
		out[id], err = memps.New(memps.Config{
			NodeID: id, Dim: dim, Topology: cfg.Topology, Transport: lt, Store: store,
			Fabric: interconnect.NewFabric(hw.DefaultGPUNode(), clock), Clock: clock,
			LRUEntries: cfg.LRUEntries, LFUEntries: cfg.LFUEntries, Seed: cfg.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		lt.Register(id, out[id])
	}
	return out
}

// TestOwnedPullMatchesPrepareInto is the per-owner pull's contract: with one,
// two and three nodes whose key sets overlap, are disjoint, or are empty,
// every node's block after stagePull is bit-equal to what PrepareInto
// assembles for it from a MEM-PS cluster that served the same pushes, every
// node is charged the same peer transfer, and every pin is released by the
// push. Caches far below the working sets put keys in the cache, the dump
// buffer and the SSD-PS. The nodes are visited concurrently and, through
// the sequential hook, one after another.
func TestOwnedPullMatchesPrepareInto(t *testing.T) {
	keySets := map[string]func(rng *rand.Rand, node, nodes int) []keys.Key{
		"overlapping": func(rng *rand.Rand, _, _ int) []keys.Key {
			return randomKeys(rng, 1, 300, 80)
		},
		"disjoint": func(rng *rand.Rand, node, _ int) []keys.Key {
			return randomKeys(rng, 1000*node+1, 300, 80) // every node's keys are owned all over
		},
		"empty": func(rng *rand.Rand, node, _ int) []keys.Key {
			if node == 0 {
				return nil
			}
			return randomKeys(rng, 1, 300, 80)
		},
	}
	for _, nodes := range []int{1, 2, 3} {
		for name, keySet := range keySets {
			for _, sequential := range []bool{false, true} {
				t.Run(fmt.Sprintf("%d-nodes/%s/sequential=%v", nodes, name, sequential), func(t *testing.T) {
					cfg := Config{
						Spec: testSpec(), Data: testData(),
						Topology: cluster.Topology{Nodes: nodes, GPUsPerNode: 1},
						Batches:  1, Seed: 5, LRUEntries: 16, LFUEntries: 16, ParamsPerFile: 16,
					}
					tr, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { tr.Close() })
					tr.sequential = sequential
					ref := referenceCluster(t, cfg)
					checkOwnedPulls(t, tr, ref, keySet)
				})
			}
		}
	}
}

// randomKeys returns n distinct keys drawn from [lo, lo+span), sorted.
func randomKeys(rng *rand.Rand, lo, span, n int) []keys.Key {
	ks := make([]keys.Key, n)
	for i := range ks {
		ks[i] = keys.Key(lo + rng.Intn(span))
	}
	return keys.Dedup(ks)
}

// checkOwnedPulls runs rounds of stagePull on tr against PrepareInto on ref,
// pushing the same deltas into both after each round.
func checkOwnedPulls(t *testing.T, tr *Trainer, ref []*memps.MemPS, keySet func(rng *rand.Rand, node, nodes int) []keys.Key) {
	t.Helper()
	dim := tr.cfg.Spec.EmbeddingDim
	nodes := len(tr.nodes)
	rng := rand.New(rand.NewSource(int64(nodes)))
	for round := 0; round < 12; round++ {
		j := &job{index: round, nodes: make([]*nodeBatch, nodes)}
		var all []keys.Key
		for r := range j.nodes {
			set := keySet(rng, r, nodes)
			all = append(all, set...)
			j.nodes[r] = &nodeBatch{index: &keys.Index{Unique: set}}
		}
		if _, err := tr.stagePull(context.Background(), j); err != nil {
			t.Fatal(err)
		}
		wss := make([]*memps.WorkingSet, nodes)
		for r, nb := range j.nodes {
			want := ps.NewValueBlock(dim)
			ws, err := ref[r].PrepareInto(nb.index.Unique, want)
			if err != nil {
				t.Fatal(err)
			}
			wss[r] = ws
			if !sameBlock(nb.block, want) {
				t.Fatalf("round %d: node %d's block differs from the one PrepareInto assembles", round, r)
			}
			ps.PutBlock(nb.block)
		}

		// The same deltas for every key any node referenced, into both.
		global := ps.NewValueBlock(dim)
		union := keys.Dedup(all)
		global.Reset(dim, union)
		for i := range union {
			global.WeightsRow(i)[round%dim] = rng.Float32() - 0.5
			global.G2Row(i)[0] = rng.Float32()
			global.Freq[i] = 1
			global.Present[i] = true
		}
		push := ps.PushBlockRequest{Shard: ps.NoShard, Block: global}
		for r, n := range tr.nodes {
			if err := n.local.PushBlock(push); err != nil {
				t.Fatal(err)
			}
			if err := n.completePull(j.nodes[r].owned); err != nil {
				t.Fatal(err)
			}
			if err := ref[r].PushBlock(push); err != nil {
				t.Fatal(err)
			}
			if err := ref[r].CompleteBatch(wss[r]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r, n := range tr.nodes {
		got, want := n.local.Stats(), ref[r].Stats()
		if got.RemoteKeys != want.RemoteKeys || got.RemotePulls != want.RemotePulls || got.RemotePullTime != want.RemotePullTime {
			t.Fatalf("node %d received %d peer keys in %d pulls (%v), PrepareInto %d in %d (%v)", r,
				got.RemoteKeys, got.RemotePulls, got.RemotePullTime, want.RemoteKeys, want.RemotePulls, want.RemotePullTime)
		}
		if pinned := n.local.PinnedKeys(); pinned != 0 {
			t.Fatalf("node %d holds %d pins after every batch completed", r, pinned)
		}
	}
}

// TestPushesNeverMissThePinnedWorkingSet trains two nodes over caches far
// smaller than a batch: every row a push applies was pinned by its batch's
// pull, so it is still cached — at depth 1, at depth 2, and with the async
// committer completing the batches — and every pin is released once the run
// has drained.
func TestPushesNeverMissThePinnedWorkingSet(t *testing.T) {
	for _, tc := range []struct {
		depth int
		async bool
	}{{1, false}, {2, false}, {2, true}} {
		t.Run(fmt.Sprintf("depth=%d/async=%v", tc.depth, tc.async), func(t *testing.T) {
			tr := runTrainer(t, Config{
				Spec: testSpec(), Data: testData(),
				Topology:  cluster.Topology{Nodes: 2, GPUsPerNode: 1},
				BatchSize: 128, Batches: 12, MaxInFlight: tc.depth, AsyncPush: tc.async,
				LRUEntries: 32, LFUEntries: 32, Seed: 9,
			})
			for _, n := range tr.nodes {
				st := n.local.Stats()
				if st.SSDLoads == 0 {
					t.Fatalf("node %d loaded nothing from the SSD-PS: the caches were not under pressure", n.id)
				}
				if st.PushMisses != 0 {
					t.Fatalf("node %d: %d pushed rows had left the cache", n.id, st.PushMisses)
				}
				if pinned := n.local.PinnedKeys(); pinned != 0 {
					t.Fatalf("node %d holds %d pins after the run", n.id, pinned)
				}
			}
		})
	}
}
