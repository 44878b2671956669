package hbmps

import (
	"fmt"

	"hps/internal/ps"
	"hps/internal/tensor"
)

// CommitBlock writes back one GPU worker's trained mini-batch (Algorithm 1
// line 14): orig is the block PullInto filled at batch start and final the
// same block after the worker's sparse optimizer step. Each stored value
// becomes final + (stored - orig) — exactly final when no other worker
// touched the key (stored == orig bit-for-bit, so the correction term is an
// exact zero), and the base value plus both workers' contributions when
// example shards share hot keys within a batch. Rows owned by another GPU
// move over NVLink. The keys are written in one merge pass under the working
// set's write lock, taken once per commit; a key missing from the working set
// fails the commit after every present key has been written.
func (h *HBMPS) CommitBlock(gpuID int, orig, final *ps.ValueBlock) error {
	if gpuID < 0 || gpuID >= len(h.devices) {
		return fmt.Errorf("hbmps: invalid gpu id %d", gpuID)
	}
	if orig.Dim != h.cfg.Dim || final.Dim != h.cfg.Dim || len(orig.Keys) != len(final.Keys) {
		return fmt.Errorf("hbmps: commit blocks disagree: orig %dx%d vs final %dx%d (want dim %d)",
			len(orig.Keys), orig.Dim, len(final.Keys), final.Dim, h.cfg.Dim)
	}
	cur := &h.cur
	h.rw.Lock()
	n, local, miss := h.walk(gpuID, final.Keys, func(i, p int) {
		ow, og := orig.WeightsRow(i), orig.G2Row(i)
		fw, fg := final.WeightsRow(i), final.G2Row(i)
		sw, sg := cur.WeightsRow(p), cur.G2Row(p)
		for e := range sw {
			sw[e] = fw[e] + (sw[e] - ow[e])
		}
		for e := range sg {
			sg[e] = fg[e] + (sg[e] - og[e])
		}
		cur.Freq[p] += final.Freq[i] - orig.Freq[i]
	})
	h.rw.Unlock()
	if miss >= 0 {
		return fmt.Errorf("hbmps: commit key %d not in the working set", final.Keys[miss])
	}
	h.count(h.traffic(local, n-local), 0, 0)
	h.rec.RecordPush(len(final.Keys))
	return nil
}

// CollectBlock writes, for every parameter of the working set whose value
// changed since it was loaded, the delta between its resident value and its
// loaded value into dst (Algorithm 1 line 16) — flat weight/g2 rows in
// working-set order (sorted, on the trainer's path), no per-key allocation
// once dst's slabs have grown to the steady delta size. The deltas are what
// the inter-node synchronization exchanges and what the MEM-PS applies to
// the authoritative copies.
//
// Every GPU computes the deltas of its own partition concurrently, under the
// working set's read lock, straight into the partition's rows of dst with the
// fused subtract-and-test kernel. A final pass in working-set order then
// compacts the changed rows to the front, so dst holds exactly the changed
// keys, in the order a serial collection would have written them.
func (h *HBMPS) CollectBlock(dst *ps.ValueBlock) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.origSet.Keys)
	dst.ResetUninit(h.cfg.Dim, h.origSet.Keys)
	if !h.loaded {
		return // nothing resident: no deltas (and no partition to walk)
	}
	h.freqDelta = ps.Resize(h.freqDelta, n)
	h.changed = ps.Resize(h.changed, n)
	h.rw.RLock()
	defer h.rw.RUnlock()
	h.dst = dst
	h.eachGPU((*HBMPS).collectGPU)
	h.dst = nil

	w := 0
	for i, p := range h.pos {
		if !h.changed[p] {
			continue
		}
		if w != i {
			copy(dst.WeightsRow(w), dst.WeightsRow(i))
			copy(dst.G2Row(w), dst.G2Row(i))
		}
		dst.Keys[w], dst.Freq[w], dst.Present[w] = h.origSet.Keys[p], h.freqDelta[p], true
		w++
	}
	dst.Truncate(w)
}

// collectGPU is GPU g's pass of CollectBlock: the delta of every row of its
// partition into the same row of h.dst, and its frequency delta and whether
// any of it is non-zero into the row's position of h.freqDelta and
// h.changed. An evicted position counts as unchanged.
func (h *HBMPS) collectGPU(g int) error {
	dst, orig, cur := h.dst, &h.origSet, &h.cur
	for j, i := range h.parts[g] {
		p := h.off[g] + j
		if !cur.Present[p] {
			h.changed[p] = false
			continue
		}
		wChanged := tensor.SubAnyNonZero(dst.WeightsRow(int(i)), cur.WeightsRow(p), orig.WeightsRow(p))
		gChanged := tensor.SubAnyNonZero(dst.G2Row(int(i)), cur.G2Row(p), orig.G2Row(p))
		h.freqDelta[p] = cur.Freq[p] - orig.Freq[p]
		h.changed[p] = wChanged || gChanged || h.freqDelta[p] != 0
	}
	return nil
}
