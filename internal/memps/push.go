package memps

import (
	"cmp"
	"fmt"
	"slices"

	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/ps"
)

// PushBlock merges the block's delta rows (weight and optimizer-state deltas
// and reference-count increments, accumulated by the HBM-PS across all GPUs
// and nodes) into the authoritative copies of the parameters this node owns.
// Rows for other nodes' parameters are ignored — their owners apply them.
// Rows apply in sorted key order; duplicate keys accumulate.
func (m *MemPS) PushBlock(req ps.PushBlockRequest) error {
	_, err := m.applyBlock(nil, req.Block)
	return err
}

// PushBatch is PushBlock for a batch this MEM-PS prepared: the rows of the
// working set's pinned keys are reached through its Refs, without a cache
// probe, and only the rows of other owned keys (those a membership change
// gave this node since the prepare) resolve through the cache. It returns
// the work of the push: the SSD-PS loads of keys no longer cached.
func (m *MemPS) PushBatch(ws *WorkingSet, blk *ps.ValueBlock) (hw.Work, error) {
	return m.applyBlock(ws, blk)
}

// applyBlock merges the owned rows of a flat delta block into the
// authoritative copies in sorted key order (see applySorted). The selection
// scratch lives on the MemPS (it runs under m.mu): in the steady hot-push
// state the whole apply allocates nothing.
func (m *MemPS) applyBlock(ws *WorkingSet, blk *ps.ValueBlock) (hw.Work, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	order := m.applyOrder[:0]
	sorted := true
	var prev keys.Key
	ks, present := blk.Keys, blk.Present
	owned := m.holder()
	for i, k := range ks {
		if present[i] && owned.holds(k) {
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
	return m.applySorted(ws, sel, func(j int, slot int32) {
		addRow(&m.rows, slot, blk, int32(order[j]))
	})
}

// PushBlockPair applies a pre-merged pair of delta blocks to the owned
// shard — the in-process push path for two-node topologies. mk lists the
// merged keys this shard owns (sorted, unique — the caller partitioned the
// key-wise merge of a and b by owner); sa[x] and sb[x] are key mk[x]'s row
// in a and b, -1 when that node did not touch it. It is equivalent to
// merging the blocks into a global block and applying it through PushBatch,
// without materializing the merged slabs: a key both nodes updated simply
// applies both source rows to the same value (the floating-point rounding
// can differ from the summed-first order by an ulp; both orders are
// deterministic). ws is the batch's working set, whose pinned rows are
// reached through its Refs; it may be nil. Ownership of mk is the caller's
// contract and is not re-checked. It returns the work of the push, as
// PushBatch does.
func (m *MemPS) PushBlockPair(ws *WorkingSet, a, b *ps.ValueBlock, mk []keys.Key, sa, sb []int32) (hw.Work, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applySorted(ws, mk, func(x int, slot int32) {
		addRow(&m.rows, slot, a, sa[x])
		addRow(&m.rows, slot, b, sb[x])
	})
}

// applySorted hands add the slab row of every key of ks, which must be
// sorted, to merge a delta into. The keys ws holds pinned are reached through
// its Refs as the walk meets them, which GetApply would have found; the rest
// resolve through the cache in one resolve call, in order, and their SSD-PS
// loads are the returned work. The caller must hold m.mu.
func (m *MemPS) applySorted(ws *WorkingSet, ks []keys.Key, add func(x int, slot int32)) (hw.Work, error) {
	rest, restAt := ks, []int(nil)
	if ws != nil && len(ws.refs) > 0 {
		rest, restAt = m.restKeys[:0], m.restAt[:0]
		local, c := ws.LocalKeys, 0
		for x, k := range ks {
			for c < len(local) && local[c] < k {
				c++
			}
			if c < len(local) && local[c] == k && m.cache.Holds(ws.refs[c], uint64(k)) {
				add(x, m.cache.ApplyRef(ws.refs[c]))
				continue
			}
			rest, restAt = append(rest, k), append(restAt, x)
		}
		m.restKeys, m.restAt = rest, restAt
	}
	var st PullStats
	err := m.resolve(rest, probeApply, &st, nil, func(j int, slot int32) {
		if restAt != nil {
			j = restAt[j]
		}
		add(j, slot)
	})
	if err != nil {
		return st.Work, fmt.Errorf("memps: apply updates: %w", err)
	}
	m.stats.PushMisses += int64(st.CacheMisses)
	m.rec.RecordPush(len(ks))
	return st.Work, nil
}

// addRow adds row i of src — weights, accumulator and frequency — into row
// slot of dst; a negative i is absent.
func addRow(dst *ps.ValueBlock, slot int32, src *ps.ValueBlock, i int32) {
	if i < 0 {
		return
	}
	dw, dg := src.WeightsRow(int(i)), src.G2Row(int(i))
	if src.Dim != dst.Dim {
		panic(fmt.Sprintf("memps: delta row of dimension %d into a value of %d", src.Dim, dst.Dim))
	}
	// Reslicing to the delta's length lets the compiler drop the bounds
	// checks in the loops.
	w, g := dst.WeightsRow(int(slot))[:len(dw)], dst.G2Row(int(slot))[:len(dg)]
	for e, d := range dw {
		w[e] += d
	}
	for e, d := range dg {
		g[e] += d
	}
	dst.Freq[slot] += src.Freq[i]
}

// HandlePushBlock merges a delta block pushed by a remote driver or peer
// node into the shard this node owns, exactly like PushBlock. A remote shard
// never sees CompleteBatch, so the push — which arrives once per training
// batch — also runs the batch-completion housekeeping (Maintain): a full
// eviction buffer is handed to the background write, and the reply does not
// wait for it.
func (m *MemPS) HandlePushBlock(blk *ps.ValueBlock) error {
	if _, err := m.applyBlock(nil, blk); err != nil {
		return err
	}
	return m.Maintain()
}
