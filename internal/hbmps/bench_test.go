package hbmps

import (
	"testing"

	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/optimizer"
	"hps/internal/ps"
)

func benchHBM(b *testing.B, gpus int) *HBMPS {
	b.Helper()
	profile := hw.DefaultGPUNode()
	h, err := New(Config{
		NumGPUs:    gpus,
		Dim:        8,
		GPUProfile: profile.GPU,
		NVLink:     profile.NVLink,
	})
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// benchWorkingSet is a loadable block of n scattered keys with random values,
// in key order (the working-set order the trainer's pull stage produces).
func benchWorkingSet(n int) *ps.ValueBlock {
	ks := make([]keys.Key, n)
	for i := range ks {
		ks[i] = keys.Key(keys.Mix64(uint64(i)))
	}
	ks = keys.Dedup(ks)
	blk := ps.NewValueBlock(8)
	for _, k := range ks {
		v := embedding.NewKeyedValue(8, 1, uint64(k))
		blk.AppendRow(k, v.Weights, v.G2Sum, v.Freq)
	}
	return blk
}

// BenchmarkLoadWorkingSet measures partitioning and loading a batch working
// set into the per-GPU slab partitions (Algorithm 1 lines 6-10) plus release.
func BenchmarkLoadWorkingSet(b *testing.B) {
	h := benchHBM(b, 4)
	ws := benchWorkingSet(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.LoadBlock(ws); err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
}

// benchCollectSetup loads a working set of n keys and trains a quarter of
// them so a collect sees a realistic mix of changed and untouched rows.
func benchCollectSetup(b *testing.B, n int) *HBMPS {
	b.Helper()
	h := benchHBM(b, 4)
	ws := benchWorkingSet(n)
	if err := h.LoadBlock(ws); err != nil {
		b.Fatal(err)
	}
	all := ws.Keys
	grad := make([]float32, 8)
	grad[0] = 0.1
	opt := optimizer.Adagrad{LR: 0.05, InitialAccumulator: 0.1}
	work, orig := ps.NewValueBlock(8), ps.NewValueBlock(8)
	if err := h.PullInto(ps.PullRequest{Shard: 0, Keys: all[:n/4]}, work); err != nil {
		b.Fatal(err)
	}
	orig.CopyFrom(work)
	for row := range work.Keys {
		opt.ApplySparse(work.WeightsRow(row), work.G2Row(row), grad)
		work.Freq[row]++
	}
	if err := h.CommitBlock(0, orig, work); err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkCollectBlock measures delta collection (Algorithm 1 line 16):
// changed-key deltas computed with the fused subtract-and-test kernel
// straight into a reused flat block — O(1) allocations once the block's
// slabs are warm.
func BenchmarkCollectBlock(b *testing.B) {
	h := benchCollectSetup(b, 8192)
	defer h.Release()
	blk := ps.NewValueBlock(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.CollectBlock(blk)
		if blk.Len() == 0 {
			b.Fatal("no deltas collected")
		}
	}
}

// BenchmarkPullCommitBlock measures a GPU worker's parameter cycle: one
// block pull of the mini-batch's key set into a reused ValueBlock, one sparse
// optimizer step per row in place, and one block commit — once per
// mini-batch.
func BenchmarkPullCommitBlock(b *testing.B) {
	h := benchHBM(b, 4)
	ws := benchWorkingSet(8192)
	if err := h.LoadBlock(ws); err != nil {
		b.Fatal(err)
	}
	defer h.Release()
	all := ws.Keys
	const nnz = 100
	feats := keys.Dedup(all[:nnz])
	grad := make([]float32, 8)
	grad[0] = 0.1
	opt := optimizer.Adagrad{LR: 0.05, InitialAccumulator: 0.1}
	work := ps.NewValueBlock(8)
	orig := ps.NewValueBlock(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gpu := i % 4
		if err := h.PullInto(ps.PullRequest{Shard: gpu, Keys: feats}, work); err != nil {
			b.Fatal(err)
		}
		orig.CopyFrom(work)
		for row := range feats {
			opt.ApplySparse(work.WeightsRow(row), work.G2Row(row), grad)
			work.Freq[row]++
		}
		if err := h.CommitBlock(gpu, orig, work); err != nil {
			b.Fatal(err)
		}
	}
}
