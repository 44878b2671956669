package memps

import (
	"cmp"
	"fmt"
	"slices"

	"hps/internal/embedding"
	"hps/internal/keys"
	"hps/internal/ps"
)

// PushBlock implements ps.Tier: it merges the block's delta rows (weight and
// optimizer-state deltas and reference-count increments, accumulated by the
// HBM-PS across all GPUs and nodes) into the authoritative copies of the
// parameters this node owns. Rows for other nodes' parameters are ignored —
// their owners apply them. Rows apply in sorted key order; duplicate keys
// accumulate.
func (m *MemPS) PushBlock(req ps.PushBlockRequest) error {
	return m.applyBlock(req.Block)
}

// applyBlock merges the owned rows of a flat delta block into the
// authoritative copies in sorted key order, through resolve. The selection
// scratch lives on the MemPS (it runs under m.mu): in the steady hot-push
// state the whole apply allocates nothing.
func (m *MemPS) applyBlock(blk *ps.ValueBlock) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	order := m.applyOrder[:0]
	sorted := true
	var prev keys.Key
	ks, present := blk.Keys, blk.Present
	for i, k := range ks {
		if present[i] && m.ownsKey(k) {
			if len(order) > 0 && k < prev {
				sorted = false
			}
			prev = k
			order = append(order, i)
		}
	}
	if !sorted {
		// Push blocks arrive in sorted key order (the merged working set is
		// sorted); only an arbitrary caller pays for the sort.
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(blk.Keys[a], blk.Keys[b]) })
	}
	m.applyOrder = order
	sel := m.applyKeys[:0]
	for _, i := range order {
		sel = append(sel, ks[i])
	}
	m.applyKeys = sel
	var st PullStats
	err := m.resolve(sel, probeApply, &st, func(j int, v *embedding.Value) {
		i := order[j]
		v.AddFlat(blk.WeightsRow(i), blk.G2Row(i), blk.Freq[i])
	})
	if err != nil {
		return fmt.Errorf("memps: apply updates: %w", err)
	}
	m.stats.PushMisses += int64(st.CacheMisses)
	m.rec.RecordPush(len(order), st.LocalTime)
	return nil
}

// PushBlockPair applies a pre-merged pair of delta blocks to the owned
// shard — the in-process push path for two-node topologies. mk lists the
// merged keys this shard owns (sorted, unique — the caller partitioned the
// key-wise merge of a and b by owner); sa[x] and sb[x] are key mk[x]'s row
// in a and b, -1 when that node did not touch it. It is equivalent to
// merging the blocks into a global block and applying it through PushBlock,
// without materializing the merged slabs: a key both nodes updated simply
// applies both source rows to the same value (the floating-point rounding
// can differ from the summed-first order by an ulp; both orders are
// deterministic). Ownership of mk is the caller's contract and is not
// re-checked.
func (m *MemPS) PushBlockPair(a, b *ps.ValueBlock, mk []keys.Key, sa, sb []int32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var st PullStats
	err := m.resolve(mk, probeApply, &st, func(x int, v *embedding.Value) {
		addPair(v, a, b, sa[x], sb[x])
	})
	if err != nil {
		return fmt.Errorf("memps: apply updates: %w", err)
	}
	m.stats.PushMisses += int64(st.CacheMisses)
	m.rec.RecordPush(len(mk), st.LocalTime)
	return nil
}

// addPair adds row ai of a and row bi of b into v; a negative row is absent.
func addPair(v *embedding.Value, a, b *ps.ValueBlock, ai, bi int32) {
	if ai >= 0 {
		v.AddFlat(a.WeightsRow(int(ai)), a.G2Row(int(ai)), a.Freq[ai])
	}
	if bi >= 0 {
		v.AddFlat(b.WeightsRow(int(bi)), b.G2Row(int(bi)), b.Freq[bi])
	}
}

// HandlePushBlock implements cluster.BlockPushHandler: it merges a delta
// block pushed by a remote driver or peer node into the shard this node
// owns, exactly like PushBlock. A remote shard never sees CompleteBatch, so
// the push — which arrives once per training batch — also runs the
// batch-completion housekeeping (Maintain): a full eviction buffer is handed
// to the background write, and the reply does not wait for it.
func (m *MemPS) HandlePushBlock(blk *ps.ValueBlock) error {
	if err := m.applyBlock(blk); err != nil {
		return err
	}
	return m.Maintain()
}
