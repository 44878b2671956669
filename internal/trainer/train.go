package trainer

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hps/internal/dataset"
	"hps/internal/keys"
	"hps/internal/metrics"
	"hps/internal/nn"
	"hps/internal/optimizer"
	"hps/internal/ps"
)

// stageTrain loads every node's working set into its HBM-PS, trains the
// batch with one concurrent worker per GPU (each pulling and pushing its
// shard against the HBM-PS), and collects the per-node update deltas.
func (t *Trainer) stageTrain(_ context.Context, j *job) (*job, error) {
	t.maybeDelay(StageTrain)
	if t.committer != nil {
		// Record the realized staleness of the parameters this batch pulled:
		// how many older batches trained without their push applied yet.
		t.committer.observeTrain(j.index)
	}
	var mu sync.Mutex
	var modelled time.Duration
	err := t.eachNode(func(n *node) error {
		nb := j.nodes[n.id]
		before := n.hbm.Stats()
		if err := n.hbm.LoadBlock(nb.block); err != nil {
			return err
		}
		// The HBM-PS copied the values; recycle the block for later batches.
		ps.PutBlock(nb.block)
		nb.block = nil
		if err := t.trainOnGPUs(n, nb); err != nil {
			return err
		}
		select {
		case n.indexes <- nb.index:
		default:
		}
		nb.index = nil
		nb.deltas = ps.GetBlock(t.cfg.Spec.EmbeddingDim, nil)
		n.hbm.CollectBlock(nb.deltas)
		if _, err := n.hbm.Evict(nil); err != nil { // release HBM for the next batch
			return err
		}
		after := n.hbm.Stats()

		// The dense tower trains on the GPUs in parallel with the sparse
		// pulls; charge its modelled compute time per GPU.
		flopsPerGPU := t.net.FLOPsPerExample() * float64(nb.batch.Len()) / float64(len(n.hbm.Devices()))
		var computeTime time.Duration
		for _, dev := range n.hbm.Devices() {
			dev.ChargeCompute(flopsPerGPU)
			if ct := dev.Profile().ComputeTime(flopsPerGPU); ct > computeTime {
				computeTime = ct
			}
		}
		d := (after.LoadTime - before.LoadTime) +
			(after.PullTime - before.PullTime) +
			(after.PushTime - before.PushTime) + computeTime
		mu.Lock()
		if d > modelled {
			modelled = d
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
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

// denseMicroRun is how many examples a GPU worker trains on its dense replica
// between syncs with the stored copy; see the package comment's staleness
// discussion.
const denseMicroRun = 32

// gpuWorker is one GPU's training state: its replica of the dense tower and
// the scratch of the batched sparse path, allocated once by shape so
// steady-state shards allocate nothing.
type gpuWorker struct {
	// net and state are the replica, trained in place with no lock held;
	// origNet and origState are its snapshot at check-out, which the commit's
	// delta is taken against — with the stored copy, the four copies a commit
	// needs. version is the Trainer.denseVersion at which the replica last
	// equalled the stored copy.
	net, origNet     *nn.Network
	state, origState *nn.DenseState
	version          uint64
	// loss collects the worker's examples between commits, so the shared
	// accumulator's mutex is taken once per micro-run, not once per example.
	loss metrics.LogLossAccumulator
	acts *nn.Activations
	vecs [][]float32
	offs []int32
	// keys is the shard's key set and local the row of each of the batch
	// index's rows in it (keys.Index.Subset).
	keys  []keys.Key
	local []int32
	// stamp[row] == ver marks rows already updated by the current example,
	// deduplicating repeated features within one example exactly like the
	// per-example path's gradient map did.
	stamp []uint32
	ver   uint32
}

// newGPUWorker allocates a worker whose replica equals the freshly built
// stored copy (denseVersion 0), so its first check-out copies nothing.
func (t *Trainer) newGPUWorker() *gpuWorker {
	return &gpuWorker{
		net: t.net.Clone(), origNet: t.net.Clone(),
		state: t.net.NewDenseState(t.denseOpt), origState: t.net.NewDenseState(t.denseOpt),
		acts: t.net.NewActivations(),
	}
}

// checkoutDense syncs w's replica with the stored copy — skipped when nothing
// was written since the replica last equalled it, i.e. w's own commit was the
// last — and snapshots it for the commit.
func (t *Trainer) checkoutDense(w *gpuWorker) {
	t.denseMu.Lock()
	if w.version != t.denseVersion {
		w.net.CopyFrom(t.net)
		w.state.CopyFrom(t.denseState)
		w.version = t.denseVersion
	}
	t.denseMu.Unlock()
	w.origNet.CopyFrom(w.net)
	w.origState.CopyFrom(w.state)
}

// commitDense folds w's trained replica into the stored copy: stored = final
// + (stored - orig). When nothing was written since the check-out, stored ==
// orig bit-for-bit and the formula yields exactly final, so the replica is
// copied over and stays in sync; otherwise a peer committed in between and
// the stored copy ends up with both contributions.
func (t *Trainer) commitDense(w *gpuWorker) {
	t.denseMu.Lock()
	merge := w.version != t.denseVersion
	t.denseVersion++
	t.denseCommits++
	if merge {
		t.denseMerges++
		t.net.Commit(w.origNet, w.net)
		t.denseState.Commit(w.origState, w.state)
	} else {
		t.net.CopyFrom(w.net)
		t.denseState.CopyFrom(w.state)
		w.version = t.denseVersion
	}
	t.denseMu.Unlock()
	t.loss.Merge(&w.loss)
}

// trainShard trains one GPU worker's mini-batch with batched parameter
// movement: one block pull of the shard's unique keys, offset-indexed
// training against the block (applying the sparse optimizer in place, example
// by example), and one block commit — in place of a pull and a gradient push
// per example. The shard's examples reference the key occurrences [lo, hi) of
// the batch's index. With a single shard the arithmetic is bit-identical to
// the per-example reference path (see CommitBlock); across concurrent shards
// the per-key contributions combine additively rather than interleaving
// through the shared tables.
func (t *Trainer) trainShard(n *node, gpuID int, examples []dataset.Example, idx *keys.Index, lo, hi int) error {
	if len(examples) == 0 {
		return nil
	}
	if t.perExample {
		return t.trainShardPerExample(n, gpuID, examples)
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

	if cap(w.stamp) < len(uniq) {
		w.stamp = make([]uint32, len(uniq))
	} else {
		w.stamp = w.stamp[:len(uniq)]
	}

	for start := 0; start < len(examples); start += denseMicroRun {
		end := min(start+denseMicroRun, len(examples))
		// One check-out and one commit per micro-run; in between the worker
		// trains its own replica and its own block, no lock held (package
		// comment, "Dense-tower staleness").
		t.checkoutDense(w)
		for e := start; e < end; e++ {
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
			pred := w.net.Forward(w.acts)
			inputGrad := w.net.BackwardApply(w.acts, pred, ex.Label, t.denseOpt, w.state)
			w.loss.Add(float64(pred), float64(ex.Label))

			// With sum pooling every referenced feature receives the input
			// gradient; apply the sparse optimizer to the block in place so
			// later examples of this shard see the update, exactly like the
			// per-example path reading back from the tables.
			w.ver++
			if w.ver == 0 { // stamp wrapped: reset the epoch space
				for i := range w.stamp {
					w.stamp[i] = 0
				}
				w.ver = 1
			}
			for _, off := range w.offs {
				if w.stamp[off] == w.ver {
					continue // repeated feature within the example
				}
				w.stamp[off] = w.ver
				t.sparseOpt.ApplySparse(work.WeightsRow(int(off)), work.G2Row(int(off)), inputGrad)
				work.Freq[off]++
			}
		}
		t.commitDense(w)
	}
	return n.hbm.CommitBlock(gpuID, orig, work)
}

// trainShardPerExample is the pre-batching reference implementation: pull
// the example's embeddings, train the stored dense copy in place with the
// reference Backward + Apply, push the gradients — per example. It is kept
// (behind the perExample hook) so tests can assert that the batched path,
// replicas and fused step included, reproduces it exactly.
func (t *Trainer) trainShardPerExample(n *node, gpuID int, examples []dataset.Example) error {
	acts := t.net.NewActivations()
	grads := t.net.NewGradients()
	var denseOpt optimizer.Dense = t.denseOpt // converted once, not per example
	vecs := make([][]float32, 0, t.cfg.Data.NonZerosPerExample)
	values := ps.NewValueBlock(t.cfg.Spec.EmbeddingDim)
	for _, ex := range examples {
		if err := n.hbm.PullInto(ps.PullRequest{Shard: gpuID, Keys: ex.Features}, values); err != nil {
			return err
		}
		vecs = vecs[:0]
		for i := range ex.Features {
			vecs = append(vecs, values.WeightsRow(i))
		}

		// No replica here: every example trains the stored copy itself.
		t.denseMu.Lock()
		nn.PoolSum(acts.Input(), vecs)
		pred := t.net.Forward(acts)
		grads.Zero()
		inputGrad := t.net.Backward(acts, pred, ex.Label, grads)
		t.net.Apply(denseOpt, t.denseState, grads)
		t.denseVersion++
		t.denseMu.Unlock()
		t.loss.Add(float64(pred), float64(ex.Label))

		// With sum pooling every referenced feature receives the input
		// gradient; the HBM-PS owners apply the sparse optimizer in place.
		sparse := make(map[keys.Key][]float32, len(ex.Features))
		for _, k := range ex.Features {
			sparse[k] = inputGrad
		}
		if err := n.hbm.PushGrads(gpuID, sparse, t.sparseOpt); err != nil {
			return err
		}
	}
	return nil
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
