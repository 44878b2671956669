package trainer

import (
	"context"
	"fmt"
	"time"

	"hps/internal/cluster"
	"hps/internal/embedding"
	"hps/internal/interconnect"
	"hps/internal/keys"
	"hps/internal/ps"
	"hps/internal/simtime"
	"hps/internal/tensor"
)

// sumDeltaBlocks merges the per-node delta blocks — sorted unique keys, all
// rows present — into dst by sorted-key union, summing coincident rows
// slab-wise with the unrolled tensor kernels. Contributions for a shared key
// combine in node order, exactly like the map-based merge this replaces.
func sumDeltaBlocks(dst *ps.ValueBlock, dim int, blocks []*ps.ValueBlock, cursors []int) {
	dst.Reset(dim, nil)
	total := 0
	for bi, b := range blocks {
		total += b.Len()
		cursors[bi] = 0
	}
	dst.Grow(total)
	if len(blocks) == 2 {
		sumDeltaBlocks2(dst, blocks[0], blocks[1])
		return
	}
	for {
		var best keys.Key
		found := false
		for bi, b := range blocks {
			if cursors[bi] < b.Len() {
				if k := b.Keys[cursors[bi]]; !found || k < best {
					best, found = k, true
				}
			}
		}
		if !found {
			return
		}
		row := dst.GrowRow(best)
		dw, dg := dst.WeightsRow(row), dst.G2Row(row)
		for bi, b := range blocks {
			if i := cursors[bi]; i < b.Len() && b.Keys[i] == best {
				tensor.Add(b.WeightsRow(i), dw)
				tensor.Add(b.G2Row(i), dg)
				dst.Freq[row] += b.Freq[i]
				cursors[bi]++
			}
		}
	}
}

// sumDeltaBlocks2 is the two-contributor fast path of sumDeltaBlocks: a
// straight two-cursor merge. Runs of keys only one node touched are copied
// slab-wise in one shot; the add kernel runs only for keys both nodes
// updated. The generic loop above pays a per-key contributor scan and a
// zero-fill-plus-two-adds even for exclusive keys, which dominates the push
// stage once everything around it is batched.
func sumDeltaBlocks2(dst *ps.ValueBlock, a, b *ps.ValueBlock) {
	i, j := 0, 0
	an, bn := a.Len(), b.Len()
	for i < an && j < bn {
		ka, kb := a.Keys[i], b.Keys[j]
		switch {
		case ka < kb:
			run := i
			for i++; i < an && a.Keys[i] < kb; i++ {
			}
			dst.AppendRows(a, run, i)
		case kb < ka:
			run := j
			for j++; j < bn && b.Keys[j] < ka; j++ {
			}
			dst.AppendRows(b, run, j)
		default:
			row := dst.GrowRowUninit(ka)
			dw, dg := dst.WeightsRow(row), dst.G2Row(row)
			copy(dw, a.WeightsRow(i))
			copy(dg, a.G2Row(i))
			tensor.Add(b.WeightsRow(j), dw)
			tensor.Add(b.G2Row(j), dg)
			dst.Freq[row] = a.Freq[i] + b.Freq[j]
			i++
			j++
		}
	}
	dst.AppendRows(a, i, an)
	dst.AppendRows(b, j, bn)
}

// mergePair merges the two nodes' sorted delta blocks key-wise and
// partitions the result by owning node into mergeScratch.pair (see
// pairMerge). One scan serves both shards, replacing two per-shard ownership
// scans and the merged-slab copies. It returns the merged row count (for the
// all-reduce charge).
func (t *Trainer) mergePair(a, b *ps.ValueBlock) int {
	s := &t.mergeScratch.pair
	s.a, s.b = a, b
	for o := range s.keys {
		s.keys[o] = s.keys[o][:0]
		s.rowsA[o] = s.rowsA[o][:0]
		s.rowsB[o] = s.rowsB[o][:0]
	}
	ring := t.cfg.Topology.Ring()
	emit := func(k keys.Key, ai, bi int32) {
		o := ring.Owner(k)
		s.keys[o] = append(s.keys[o], k)
		s.rowsA[o] = append(s.rowsA[o], ai)
		s.rowsB[o] = append(s.rowsB[o], bi)
	}
	an, bn := a.Len(), b.Len()
	i, j := 0, 0
	for i < an && j < bn {
		ka, kb := a.Keys[i], b.Keys[j]
		switch {
		case ka < kb:
			if a.Present[i] {
				emit(ka, int32(i), -1)
			}
			i++
		case kb < ka:
			if b.Present[j] {
				emit(kb, -1, int32(j))
			}
			j++
		default:
			if a.Present[i] || b.Present[j] {
				ai, bi := int32(i), int32(j)
				if !a.Present[i] {
					ai = -1
				}
				if !b.Present[j] {
					bi = -1
				}
				emit(ka, ai, bi)
			}
			i++
			j++
		}
	}
	for ; i < an; i++ {
		if a.Present[i] {
			emit(a.Keys[i], int32(i), -1)
		}
	}
	for ; j < bn; j++ {
		if b.Present[j] {
			emit(b.Keys[j], -1, int32(j))
		}
	}
	return len(s.keys[0]) + len(s.keys[1])
}

// stagePush synchronizes the per-node deltas (the hierarchical all-reduce of
// Appendix C.3), has every owner apply its share of them, and completes the
// batch (unpin, dump evictions, compact — Algorithm 1 lines 16-18). The
// whole stage is block-native: the per-node delta blocks are summed slab-wise
// into one global block, the modelled all-reduce is charged from its byte
// size, and each owner applies it through one PushBlock (one flat wire frame
// per owner in multi-process mode) — no per-key value allocation anywhere on
// the path.
func (t *Trainer) stagePush(ctx context.Context, j *job) (*job, error) {
	t.maybeDelay(StagePush)

	// Sum the deltas of all nodes: the inter-node synchronization delivers
	// every delta everywhere, and each owner applies the global sum once. The
	// two-node in-process case skips the materialized merge entirely — each
	// MEM-PS sums the pair on the fly in PushBlockPair — so only the merged
	// row count (for the all-reduce charge) is computed here. Async push
	// always materializes the merge: the committer needs an owned block that
	// outlives this stage, while the fused pair path reads the per-node delta
	// blocks and per-batch pair scratch in place.
	//
	// The fused path stays because the benchmark sees it: with it disabled,
	// train_local_cold (sync, in-process, 2 nodes) runs the general merge and
	// its p90 RSS rises 8.1% over 10 alternating 16 s pairs at seed 1 (31.1
	// -> 33.6 MB) and 11.5% over 5 more (30.1 -> 33.6 MB), every run above
	// every fused run, on a 2-core Xeon VM; examples/s falls about 4%.
	fused := t.committer == nil && t.remote == nil && len(t.nodes) == 2
	var d deltas
	mergedRows := 0
	if fused {
		mergedRows = t.mergePair(j.nodes[0].deltas, j.nodes[1].deltas)
		d.pair = &t.mergeScratch.pair
	} else {
		d.global = t.mergeGlobal(j)
		mergedRows = d.global.Len()
	}
	syncTime := t.chargeAllReduce(mergedRows)
	if t.committer != nil {
		return t.pushAsync(ctx, j, d.global, syncTime)
	}
	return t.pushSync(j, d, syncTime)
}

// mergeGlobal is stagePush's general merge: the sum of every node's deltas as
// one global block — the single node's own delta block, adopted, or a pooled
// block.
func (t *Trainer) mergeGlobal(j *job) *ps.ValueBlock {
	global := j.nodes[0].deltas
	if len(t.nodes) > 1 {
		global = ps.GetBlock(t.cfg.Spec.EmbeddingDim, nil)
		t.mergeScratch.blocks = t.mergeScratch.blocks[:0]
		for _, nb := range j.nodes {
			t.mergeScratch.blocks = append(t.mergeScratch.blocks, nb.deltas)
		}
		if cap(t.mergeScratch.cursors) < len(t.nodes) {
			t.mergeScratch.cursors = make([]int, len(t.nodes))
		}
		sumDeltaBlocks(global, t.cfg.Spec.EmbeddingDim, t.mergeScratch.blocks, t.mergeScratch.cursors[:len(t.nodes)])
	}
	return global
}

// chargeAllReduce charges the modelled all-reduce of a batch's updates and
// returns its duration: every GPU contributes its partition, inter-node
// rounds over RDMA, intra-node rounds over NVLink. The volume is the global
// block's payload size (every row is a changed key, so rows x
// encoded-row-size is exactly what the synchronization moves) plus the dense
// gradient the batch's one dense step sums (ParamCount float32s). The charge
// stays on the push stage even in async mode — the synchronization itself is
// not deferred, only the owners' apply.
func (t *Trainer) chargeAllReduce(mergedRows int) time.Duration {
	var syncTime time.Duration
	totalGPUs := t.cfg.Topology.TotalGPUs()
	if totalGPUs > 1 {
		deltaBytes := int64(mergedRows)*int64(8+embedding.EncodedSize(t.cfg.Spec.EmbeddingDim)) + 4*t.net.ParamCount()
		bytesPerGPU := deltaBytes / int64(totalGPUs)
		syncTime = interconnect.HierarchicalAllReduceTime(
			bytesPerGPU, t.cfg.Topology.Nodes, t.cfg.Topology.GPUsPerNode,
			t.cfg.Profile.RDMA, t.cfg.Profile.NVLink)
		t.clock.Add(simtime.ResourceRDMA, syncTime)
		t.mu.Lock()
		t.allReduce += syncTime
		t.mu.Unlock()
	}
	return syncTime
}

// pushAsync hands the merged block and the batch's pull to the background
// committer and returns: the pipeline slot frees before the owners' round
// trip. The committer owns global from here; the per-node blocks are
// released now (the single-node case adopted its delta block as global).
func (t *Trainer) pushAsync(ctx context.Context, j *job, global *ps.ValueBlock, syncTime time.Duration) (*job, error) {
	pj := &pushJob{index: j.index, global: global, pull: j.pull}
	j.pull = nil
	for _, nb := range j.nodes {
		if nb.deltas != global {
			ps.PutBlock(nb.deltas)
		}
		nb.deltas = nil
	}
	t.addStageModelled(StagePush, syncTime)
	if err := t.committer.enqueue(ctx, pj); err != nil {
		return nil, err
	}
	return j, nil
}

// pushSync has every owner apply its share of d and complete the batch, then
// republishes the dense tower, all before the stage returns.
func (t *Trainer) pushSync(j *job, d deltas, syncTime time.Duration) (*job, error) {
	defer func() {
		for _, nb := range j.nodes {
			ps.PutBlock(nb.deltas)
			nb.deltas = nil
		}
		if d.global != nil && len(t.nodes) > 1 {
			ps.PutBlock(d.global)
		}
	}()
	// The owners' push-time deltas are safe to read here because only this
	// stage touches the push path. The SSD-PS writes are not the stage's:
	// CompleteBatch hands them to the MEM-PS's background write (blockio
	// still charges them to the clock's SSD).
	modelled, err := t.applyPush(d, j.pull)
	if err != nil {
		return nil, err
	}
	j.pull = nil
	if err := t.republishDense(j.index); err != nil {
		return nil, err
	}
	t.addStageModelled(StagePush, modelled+syncTime)
	return j, nil
}

// republishDense refreshes every shard's dense replica once a batch's pushes
// have been applied (Config.Serve): shards stamp the parameters with the
// epoch and bound their reported serving staleness against it, and the
// trained-batch watermark rides along so they can report how far their
// parameters trail training (push epoch lag).
func (t *Trainer) republishDense(index int) error {
	if !t.cfg.Serve {
		return nil
	}
	t.denseMu.Lock()
	t.denseFlat = t.net.FlattenParams(t.denseFlat[:0])
	t.denseMu.Unlock()
	scfg := cluster.ServeConfig{Dense: t.denseFlat, Epoch: uint64(index) + 1,
		TrainedEpoch: t.trainedEpoch.Load()}
	for _, id := range t.cfg.Topology.MemberIDs() {
		if err := t.remote.PublishServeConfig(id, scfg); err != nil {
			// A member mid-failover misses this epoch's dense refresh; it
			// catches up on the next one. Failing the run here would turn a
			// survivable shard outage into a training abort.
			if t.cfg.Topology.Replicas > 1 {
				continue
			}
			return fmt.Errorf("trainer: refresh dense on shard %d: %w", id, err)
		}
	}
	return nil
}
