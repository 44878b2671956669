package trainer

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hps/internal/dataset"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/metrics"
	"hps/internal/nn"
	"hps/internal/ps"
	"hps/internal/tensor"
)

// stageTrain loads every node's working set into its HBM-PS, trains the
// batch with one concurrent worker per GPU (each pulling and pushing its
// shard against the HBM-PS), collects the per-node update deltas, and takes
// the batch's one dense step. The nodes train in parallel, so the stage
// takes the slowest node's: its HBM-PS work, one after another, plus one
// GPU's share of the dense tower.
func (t *Trainer) stageTrain(_ context.Context, j *job) (*job, error) {
	t.maybeDelay(StageTrain)
	if t.committer != nil {
		// Record the realized staleness of the parameters this batch pulled:
		// how many older batches trained without their push applied yet.
		t.committer.observeTrain(j.index)
	}
	modelled, err := t.slowest(len(t.nodes), func(i int) (time.Duration, error) {
		n := t.nodes[i]
		nb := j.nodes[n.id]
		before := n.hbm.Stats().Work
		if err := n.hbm.LoadBlock(nb.block); err != nil {
			return 0, err
		}
		// The HBM-PS copied the values; recycle the block for later batches.
		ps.PutBlock(nb.block)
		nb.block = nil
		if err := t.trainOnGPUs(n, nb); err != nil {
			return 0, err
		}
		select {
		case n.indexes <- nb.index:
		default:
		}
		nb.index = nil
		nb.deltas = ps.GetBlock(t.cfg.Spec.EmbeddingDim, nil)
		n.hbm.CollectBlock(nb.deltas)
		if _, err := n.hbm.Evict(nil); err != nil { // release HBM for the next batch
			return 0, err
		}
		w := n.hbm.Stats().Work.Minus(before)

		// The dense tower trains on the GPUs in parallel with the sparse
		// pulls: one kernel per GPU over its share of the batch.
		gpus := int64(n.hbm.NumGPUs())
		flops := t.net.FLOPsPerExample() * float64(nb.batch.Len())
		t.work.Add(hw.Ops(hw.ResGPU, gpus, flops))
		w.Add(hw.Ops(hw.ResGPU, 1, flops/float64(gpus)))
		return t.model(w).Sum(), nil
	})
	if err != nil {
		return nil, err
	}
	t.denseStep()
	t.addStageModelled(StageTrain, modelled)
	// Advance the trained-batch watermark (stageTrain runs on a single
	// pipeline goroutine with monotonic indices).
	t.trainedEpoch.Store(uint64(j.index) + 1)
	return j, nil
}

// trainOnGPUs shards the batch across the node's GPUs — Batch.Shard's split,
// as example ranges plus the key-occurrence range each covers in the batch's
// index — and trains each shard on its own worker goroutine: pull the
// example's embeddings from the HBM-PS, run the dense tower, push the sparse
// gradients back (Algorithm 1 lines 11-15).
func (t *Trainer) trainOnGPUs(n *node, nb *nodeBatch) error {
	numGPUs := n.hbm.NumGPUs()
	examples := nb.batch.Examples
	errs := make([]error, numGPUs)
	var wg sync.WaitGroup
	occ := 0
	for g := 0; g < numGPUs; g++ {
		lo, hi := dataset.ShardBounds(len(examples), numGPUs, g)
		shard := examples[lo:hi]
		first := occ
		for i := range shard {
			occ += len(shard[i].Features)
		}
		wg.Add(1)
		go func(g, first, end int) {
			defer wg.Done()
			errs[g] = t.trainShard(n, g, shard, nb.index, first, end)
		}(g, first, occ)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// gpuWorker is one GPU's training scratch, allocated once by shape so
// steady-state shards allocate nothing.
type gpuWorker struct {
	// grads accumulates the dense gradient of the worker's shards until the
	// batch's dense step (denseStep) sums it in and zeroes it, so a worker
	// whose shard is empty contributes zero.
	grads *nn.Gradients
	// loss collects the shard's examples, so the shared accumulator's mutex
	// is taken once per shard, not once per example.
	loss metrics.LogLossAccumulator
	acts *nn.Activations
	vecs [][]float32
	offs []int32
	// keys is the shard's key set and local the row of each of the batch
	// index's rows in it (keys.Index.Subset).
	keys  []keys.Key
	local []int32
	// sparse sums the shard's gradient of every row of keys, dim floats per
	// row, for the one sparse step per row at the end of the shard.
	sparse []float32
	// stamp[row] == ver marks rows already credited by the current example,
	// so a feature repeated within one example receives its gradient once.
	stamp []uint32
	ver   uint32
}

// trainShard trains one GPU worker's mini-batch with batched parameter
// movement: one block pull of the shard's unique keys, offset-indexed
// forward and backward passes against the block, and one block commit — in
// place of a pull and a gradient push per example. Every example reads the
// parameters as they were when the batch started: the worker accumulates the
// dense gradient into its own nn.Gradients (stageTrain steps the tower once
// per batch) and the sparse gradient into one row per key, and applies the
// sparse optimizer once per row after the last example. The shard's examples
// reference the key occurrences [lo, hi) of the batch's index. With a single
// shard the arithmetic is bit-identical to reference.Trainer.TrainBatch (see
// CommitBlock); across concurrent shards the per-key contributions combine
// additively.
func (t *Trainer) trainShard(n *node, gpuID int, examples []dataset.Example, idx *keys.Index, lo, hi int) error {
	if len(examples) == 0 {
		return nil
	}
	w := n.workers[gpuID]

	// The shard's unique key set, sorted, and the row of every batch-index row
	// in it: the batch was partitioned once in the read stage, so a feature's
	// row offset is two loads, not a sort and a search.
	uniq, local := idx.Subset(lo, hi, w.keys, w.local)
	w.keys, w.local = uniq, local
	rows := idx.Rows[lo:hi]

	dim := t.cfg.Spec.EmbeddingDim
	work := ps.GetBlock(dim, uniq)
	defer ps.PutBlock(work)
	if err := n.hbm.PullInto(ps.PullRequest{Shard: gpuID, Keys: uniq}, work); err != nil {
		return err
	}
	orig := ps.GetBlock(dim, uniq)
	defer ps.PutBlock(orig)
	orig.CopyFrom(work)

	// A grown stamp starts at zero, below every epoch handed out so far.
	w.stamp = ps.Resize(w.stamp, len(uniq))
	w.sparse = ps.Resize(w.sparse, len(uniq)*dim)
	clear(w.sparse)

	for e := range examples {
		ex := &examples[e]
		w.vecs = w.vecs[:0]
		w.offs = w.offs[:0]
		for _, r := range rows[:len(ex.Features)] {
			off := local[r]
			w.offs = append(w.offs, off)
			w.vecs = append(w.vecs, work.WeightsRow(int(off)))
		}
		rows = rows[len(ex.Features):]
		nn.PoolSum(w.acts.Input(), w.vecs)
		// Nothing writes t.net while the workers train (stageTrain steps it
		// after trainOnGPUs returns), so they read it without a lock.
		pred := t.net.Forward(w.acts)
		inputGrad := t.net.Backward(w.acts, pred, ex.Label, w.grads)
		w.loss.Add(float64(pred), float64(ex.Label))

		// With sum pooling every distinct feature of the example receives
		// the input gradient.
		w.ver++
		if w.ver == 0 { // stamp wrapped: reset the epoch space, spare capacity included
			clear(w.stamp[:cap(w.stamp)])
			w.ver = 1
		}
		for _, off := range w.offs {
			if w.stamp[off] == w.ver {
				continue // repeated feature within the example
			}
			w.stamp[off] = w.ver
			tensor.Add(inputGrad, w.sparse[int(off)*dim:(int(off)+1)*dim])
			work.Freq[off]++
		}
	}
	t.loss.Merge(&w.loss)
	// Every row of the shard's key set was referenced by one of its examples:
	// one sparse step each.
	for off := range uniq {
		t.sparseOpt.ApplySparse(work.WeightsRow(off), work.G2Row(off), w.sparse[off*dim:(off+1)*dim])
	}
	return n.hbm.CommitBlock(gpuID, orig, work)
}

// denseStep takes the batch's one dense optimizer step: it sums every GPU
// worker's accumulated gradient, node by node and GPU by GPU, into the first
// worker's, applies the sum to the stored tower (the modelled all-reduce of
// Algorithm 1, countAllReduce), and zeroes every accumulator for the next
// batch. The sum is a sum, not a mean: one step over the batch's summed
// gradient, as a single worker that trained every example would take.
func (t *Trainer) denseStep() {
	sum := t.nodes[0].workers[0].grads
	for _, n := range t.nodes {
		for _, w := range n.workers {
			if w.grads != sum {
				sum.Add(w.grads)
			}
		}
	}
	t.denseMu.Lock()
	t.net.Apply(t.denseOpt, t.denseState, sum)
	t.denseSteps++
	t.denseMu.Unlock()
	for _, n := range t.nodes {
		for _, w := range n.workers {
			w.grads.Zero()
		}
	}
}

// Predict returns the model's click probability for a feature set, reading
// the authoritative parameter copies of its distinct keys from their owners
// into one block (one batched lookup per owner — over the wire in
// multi-process mode, failing over to backups on a primary outage) and
// pooling the rows in feature order, as the serving tier does. Features
// never trained on contribute nothing (matching internal/reference). It
// fails if an owner's parameters cannot be read: a prediction computed with
// a shard's embeddings missing would be silently wrong.
func (t *Trainer) Predict(features []keys.Key) (float32, error) {
	var (
		ib keys.IndexBuilder
		x  keys.Index
	)
	ib.Add(features)
	ib.Build(&x)
	dim := t.cfg.Spec.EmbeddingDim
	blk := ps.GetBlock(dim, x.Unique)
	defer ps.PutBlock(blk)
	sub := ps.GetBlock(dim, nil)
	defer ps.PutBlock(sub)
	t.ownersMu.Lock()
	owners := t.owners
	parts := t.cfg.Topology.SplitByNode(x.Unique)
	t.ownersMu.Unlock()
	for id, ks := range parts {
		if len(ks) == 0 {
			continue
		}
		if id >= len(owners) || owners[id] == nil {
			return 0, fmt.Errorf("trainer: predict: keys owned by %d, which is not an owner of this trainer", id)
		}
		if err := owners[id].HandleLookupBlock(ks, sub); err != nil {
			return 0, fmt.Errorf("trainer: predict: owner %d: %w", id, err)
		}
		blk.ScatterRows(sub)
	}
	vecs := make([][]float32, 0, len(features))
	for _, r := range x.Rows {
		if blk.Present[r] {
			vecs = append(vecs, blk.WeightsRow(int(r)))
		}
	}
	t.denseMu.Lock()
	defer t.denseMu.Unlock()
	nn.PoolSum(t.evalActs.Input(), vecs)
	return t.net.Forward(t.evalActs), nil
}

// Evaluate returns the model AUC over n fresh examples drawn from gen.
func (t *Trainer) Evaluate(gen *dataset.Generator, n int) (float64, error) {
	scores := make([]float64, 0, n)
	labels := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		ex := gen.NextExample()
		p, err := t.Predict(ex.Features)
		if err != nil {
			return 0, err
		}
		scores = append(scores, float64(p))
		labels = append(labels, float64(ex.Label))
	}
	return metrics.AUC(scores, labels), nil
}
