package trainer

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"hps/internal/cluster"
	"hps/internal/keys"
	"hps/internal/model"
	"hps/internal/ps"
)

// BenchmarkTrainerBatch measures the composed hot path — one full
// read -> pull -> train -> push cycle per op on a single node — so future
// changes benchmark the end-to-end batch cost, not just individual tiers.
func BenchmarkTrainerBatch(b *testing.B) {
	spec := model.Spec{
		Name:               "bench",
		NonZerosPerExample: 15,
		SparseParams:       20000,
		EmbeddingDim:       8,
		HiddenLayers:       []int{32, 16},
	}
	tr, err := New(Config{
		Spec:        spec,
		Topology:    cluster.Topology{Nodes: 1, GPUsPerNode: 1},
		BatchSize:   256,
		Batches:     b.N,
		MaxInFlight: 1, // strict parameter ordering: per-op cost is one batch, its read overlapped
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	b.ResetTimer()
	if err := tr.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
}

// benchPipelineDepth is the shared body of the pipelined-vs-synchronous
// benchmark pair. The injected stage delays model the wait-dominated stages of
// a production batch — the HDFS read and the networked MEM-PS pull/push spend
// their wall time blocked, not computing — which is exactly the latency a
// deeper pipeline exists to hide. Without them the benchmark would only
// measure CPU contention on whatever core count the bench machine happens to
// have; with them, the per-op gap between the two benchmarks is the overlap
// itself (steady-state per-op tends to the slowest stage, not the stage sum).
func benchPipelineDepth(b *testing.B, depth int, asyncPush bool) {
	spec := model.Spec{
		Name:               "bench",
		NonZerosPerExample: 15,
		SparseParams:       20000,
		EmbeddingDim:       8,
		HiddenLayers:       []int{32, 16},
	}
	tr, err := New(Config{
		Spec:        spec,
		Topology:    cluster.Topology{Nodes: 1, GPUsPerNode: 1},
		BatchSize:   256,
		Batches:     b.N,
		MaxInFlight: depth,
		AsyncPush:   asyncPush,
		PushLag:     2,
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	tr.stageDelay = map[string]time.Duration{
		StageRead: 3 * time.Millisecond, // HDFS stream wait
		StagePull: 3 * time.Millisecond, // MEM-PS round trip
		StagePush: 3 * time.Millisecond, // synchronized push round trip
	}
	b.ResetTimer()
	if err := tr.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTrainerSynchronous is the depth-1 baseline of the pair: every batch
// pays pull + train + push end to end, waits included; only the next batch's
// read (and its wait) overlaps them.
func BenchmarkTrainerSynchronous(b *testing.B) { benchPipelineDepth(b, 1, false) }

// BenchmarkTrainerPipelined measures steady-state throughput at the default
// depth with the async push committer on — the configuration the adaptive
// pipeline work optimizes for. Target: >= 1.5x BenchmarkTrainerSynchronous
// ops/s (the AUC side of the trade is pinned by TestAsyncPushMatchesSyncAUC).
func BenchmarkTrainerPipelined(b *testing.B) { benchPipelineDepth(b, 4, true) }

// BenchmarkStagePushMultiNode measures the block-native push stage on a
// 2-node cluster: slab-wise sorted-key merge of the per-node delta blocks,
// the modelled all-reduce charge, and one PushBlock apply per MEM-PS. The
// per-node blocks are refilled from templates each iteration (a slab copy,
// standing in for CollectBlock's output) because the stage recycles them into
// the block pool.
func BenchmarkStagePushMultiNode(b *testing.B) {
	const (
		dim     = 8
		perNode = 2048
		overlap = 512 // keys trained by both nodes in the same batch
	)
	spec := model.Spec{
		Name:               "bench-push",
		NonZerosPerExample: 15,
		SparseParams:       100000,
		EmbeddingDim:       dim,
		HiddenLayers:       []int{32, 16},
	}
	tr, err := New(Config{
		Spec:     spec,
		Topology: cluster.Topology{Nodes: 2, GPUsPerNode: 2},
		Batches:  1,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()

	rng := rand.New(rand.NewSource(7))
	fill := func(ks []keys.Key) *ps.ValueBlock {
		blk := ps.NewValueBlock(dim)
		blk.Reset(dim, ks)
		for i := range ks {
			for j := 0; j < dim; j++ {
				blk.WeightsRow(i)[j] = rng.Float32()*2 - 1
				blk.G2Row(i)[j] = rng.Float32()
			}
			blk.Freq[i] = 1
			blk.Present[i] = true
		}
		return blk
	}
	// Sorted unique per-node key sets sharing `overlap` keys, so the merge
	// exercises both the disjoint and the summing paths.
	shared := make([]keys.Key, overlap)
	for i := range shared {
		shared[i] = keys.Key(keys.Mix64(uint64(i)))
	}
	templates := make([]*ps.ValueBlock, 2)
	for nid := range templates {
		ks := append([]keys.Key(nil), shared...)
		for i := 0; i < perNode-overlap; i++ {
			ks = append(ks, keys.Key(keys.Mix64(uint64(1000+nid*perNode+i))))
		}
		templates[nid] = fill(keys.Dedup(ks))
	}

	j := &job{index: 0, nodes: []*nodeBatch{{}, {}}}
	pull := make([]ownedPull, 2) // nothing pinned: the push completes empty shares
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for nid, nb := range j.nodes {
			blk := ps.GetBlock(dim, nil)
			blk.CopyFrom(templates[nid])
			nb.deltas = blk
		}
		j.pull = pull
		if _, err := tr.stagePush(context.Background(), j); err != nil {
			b.Fatal(err)
		}
	}
}
