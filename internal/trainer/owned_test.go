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
	"hps/internal/serving"
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
func referenceCluster(t *testing.T, cfg Config) ([]*memps.MemPS, *hw.Counter) {
	t.Helper()
	cfg = cfg.withDefaults()
	dim := cfg.Spec.EmbeddingDim
	lt := cluster.NewLocalTransport(dim)
	out := make([]*memps.MemPS, cfg.Topology.Nodes)
	clock := hw.NewCounter()
	for id := range out {
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
	return out, clock
}

// TestOwnedPullMatchesPrepareInto is the owner contract's pull: with one,
// two and three nodes whose key sets overlap, are disjoint, or are empty,
// every node's block after stagePull is bit-equal to what PrepareInto
// assembles for it from a MEM-PS cluster that served the same pushes. The
// owners are the nodes' own MEM-PS — visited concurrently and, through the
// sequential hook, one after another — or shard servers over loopback TCP.
// In process every node is also charged the same peer transfer, and every pin
// is released by the push. Caches far below the working sets put keys in the
// cache, the dump buffer and the SSD-PS.
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
					ref, work := referenceCluster(t, cfg)
					checkOwnedPulls(t, tr, ref, work, keySet)
				})
			}
			t.Run(fmt.Sprintf("%d-nodes/%s/remote", nodes, name), func(t *testing.T) {
				cfg := Config{
					Spec: testSpec(), Data: testData(),
					Topology: cluster.Topology{Nodes: nodes, GPUsPerNode: 1},
					Batches:  1, Seed: 5, LRUEntries: 16, LFUEntries: 16, ParamsPerFile: 16,
				}
				_, cfg.RemoteShards = startShards(t, cfg.Topology, cfg.Seed, 16, 16)
				tr, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { tr.Close() })
				ref, work := referenceCluster(t, cfg)
				checkOwnedPulls(t, tr, ref, work, keySet)
			})
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
// pushing the same deltas into both after each round: through every owner of
// tr (applyPush, which completes the pull) and into every MEM-PS of ref. In
// process, tr counts the same peer transfers as ref, which counts into
// refWork.
func checkOwnedPulls(t *testing.T, tr *Trainer, ref []*memps.MemPS, refWork *hw.Counter, keySet func(rng *rand.Rand, node, nodes int) []keys.Key) {
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
		if _, err := tr.applyPush(deltas{global: global}, j.pull); err != nil {
			t.Fatal(err)
		}
		push := ps.PushBlockRequest{Shard: ps.NoShard, Block: global}
		for r := range ref {
			if err := ref[r].PushBlock(push); err != nil {
				t.Fatal(err)
			}
			if err := ref[r].CompleteBatch(wss[r]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r, n := range tr.nodes {
		if n.local == nil {
			continue // a shard server's accounting is its own
		}
		got, want := n.local.Stats(), ref[r].Stats()
		if got.RemoteKeys != want.RemoteKeys || got.RemotePulls != want.RemotePulls {
			t.Fatalf("node %d received %d peer keys in %d pulls, PrepareInto %d in %d", r,
				got.RemoteKeys, got.RemotePulls, want.RemoteKeys, want.RemotePulls)
		}
		if pinned := n.local.PinnedKeys(); pinned != 0 {
			t.Fatalf("node %d holds %d pins after every batch completed", r, pinned)
		}
	}
	if got, want := tr.work.Total()[hw.ResNetwork], refWork.Total()[hw.ResNetwork]; tr.remote == nil && got != want {
		t.Fatalf("peer transfers counted %+v, PrepareInto's %+v", got, want)
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

// stepBatches trains n batches one stage at a time — read, pull, train, push
// — calling read with each batch after its read stage and trained after its
// train stage (nil skips either).
func stepBatches(t *testing.T, tr *Trainer, n int, read, trained func(j *job)) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		j := &job{index: i, nodes: make([]*nodeBatch, len(tr.nodes))}
		var err error
		if j, err = tr.stageRead(ctx, j); err != nil {
			t.Fatal(err)
		}
		if read != nil {
			read(j)
		}
		if j, err = tr.stagePull(ctx, j); err != nil {
			t.Fatal(err)
		}
		if j, err = tr.stageTrain(ctx, j); err != nil {
			t.Fatal(err)
		}
		if trained != nil {
			trained(j)
		}
		if _, err = tr.stagePush(ctx, j); err != nil {
			t.Fatal(err)
		}
	}
}

// batchUnion returns the sorted union of every node's keys of j's batch.
func batchUnion(j *job) []keys.Key {
	var all []keys.Key
	for _, nb := range j.nodes {
		all = append(all, nb.index.Unique...)
	}
	return keys.Dedup(all)
}

// deltaUnion returns how many rows merging j's per-node delta blocks yields.
func deltaUnion(j *job) int {
	var all []keys.Key
	for _, nb := range j.nodes {
		for i, k := range nb.deltas.Keys {
			if nb.deltas.Present[i] {
				all = append(all, k)
			}
		}
	}
	return len(keys.Dedup(all))
}

// remoteTrainer builds a multi-process trainer over in-test shard servers,
// one per member of topo.
func remoteTrainer(t *testing.T, topo cluster.Topology) (*Trainer, []*serving.Shard) {
	t.Helper()
	cfg := Config{
		Spec: testSpec(), Data: testData(), Topology: topo,
		BatchSize: 64, Batches: 6, Seed: 11,
	}
	var shards []*serving.Shard
	shards, cfg.RemoteShards = startShards(t, topo, cfg.Seed, 0, 0)
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr, shards
}

// TestRemotePullIsOneRPCPerOwner states the pull traffic of the owner
// contract over TCP: with two nodes on two shard servers, every batch costs
// one pull RPC per shard that owns any of its keys — not one per node and
// shard — and pulls each key of the union of the nodes' keys exactly once.
func TestRemotePullIsOneRPCPerOwner(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, GPUsPerNode: 1}
	tr, _ := remoteTrainer(t, topo)
	var owners, unionKeys int64
	stepBatches(t, tr, 6, func(j *job) {
		union := batchUnion(j)
		touched := map[int]bool{}
		for _, k := range union {
			touched[topo.NodeOf(k)] = true
		}
		owners += int64(len(touched))
		unionKeys += int64(len(union))
	}, nil)
	r := tr.Report().Remote
	if r.Pulls != owners || r.KeysPulled != unionKeys {
		t.Fatalf("%d pull RPCs moving %d keys; want one per owner touched (%d) moving the batches' unions (%d keys)",
			r.Pulls, r.KeysPulled, owners, unionKeys)
	}
}

// TestUnreplicatedTrainerTakesTheRing pins that every trainer can install a
// membership update: an hps driver run broadcasts its ring once its shards
// are up, so a trainer built over a topology without a view takes it like a
// replicated one and keeps training over the same members.
func TestUnreplicatedTrainerTakesTheRing(t *testing.T) {
	tr, shards := remoteTrainer(t, cluster.Topology{Nodes: 2, GPUsPerNode: 1})
	if err := tr.UpdateMembership(cluster.MembershipUpdate{Epoch: 1, Members: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if got := tr.cfg.Topology.Members.Epoch(); got != 1 {
		t.Fatalf("trainer ring at epoch %d after the update, want 1", got)
	}
	stepBatches(t, tr, 2, nil, nil)
	for id, sh := range shards {
		if sh.Mem.TierStats().KeysPushed == 0 {
			t.Fatalf("shard %d received no pushes after the update", id)
		}
	}
}

// TestRingMembersOwnTheirPartitions runs a ring of three shard servers under
// two nodes, so owners are not nodes: each batch's merged deltas reach every
// member exactly once — the rows pushed, counted by the driver and by the
// shards, sum to the merged blocks' rows — its union is pulled once, and the
// report counts the three shard processes.
func TestRingMembersOwnTheirPartitions(t *testing.T) {
	ms := cluster.NewMembership(cluster.NewRing([]int{0, 1, 2}))
	tr, shards := remoteTrainer(t, cluster.Topology{Nodes: 2, GPUsPerNode: 1, Members: ms})
	var unionKeys, mergedRows int64
	stepBatches(t, tr, 6,
		func(j *job) { unionKeys += int64(len(batchUnion(j))) },
		func(j *job) { mergedRows += int64(deltaUnion(j)) })
	r := tr.Report().Remote
	var shardRows int64
	for _, sh := range shards {
		shardRows += sh.Mem.TierStats().KeysPushed
	}
	if r.KeysPushed != mergedRows || shardRows != mergedRows {
		t.Fatalf("driver pushed %d rows and the shards applied %d; the merged blocks held %d", r.KeysPushed, shardRows, mergedRows)
	}
	if r.Shards != 3 {
		t.Fatalf("report counts %d shard processes for a 3-member ring", r.Shards)
	}
	if r.KeysPulled != unionKeys {
		t.Fatalf("pulled %d keys; the batches' unions hold %d", r.KeysPulled, unionKeys)
	}
}
