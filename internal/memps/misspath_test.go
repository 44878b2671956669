package memps

import (
	"math/rand"
	"slices"
	"testing"

	"hps/internal/cluster"
	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/ps"
)

// TestMissPathMatchesModel drives every pull and push form (PrepareOwnedInto
// included, with two nodes' blocks to fill) over a cache far
// smaller than the key space, so that each call finds its keys spread over
// the cache, the dump buffer and the SSD-PS (and some nowhere yet), against a
// model that applies the same deltas to its own copy of every value. A value
// resolved from the wrong position of a batched load, re-created instead of
// loaded, or replaced after an earlier duplicate row was applied shows as a
// wrong value.
func TestMissPathMatchesModel(t *testing.T) {
	const (
		dim      = 4
		keySpace = 60
	)
	clock := hw.NewCounter()
	m, err := New(Config{
		Dim:           dim,
		Topology:      cluster.Topology{Nodes: 1, GPUsPerNode: 1},
		Store:         newStore(t, dim, clock),
		Clock:         clock,
		LRUEntries:    3,
		LFUEntries:    3,
		DumpBatchSize: 5,
		Seed:          9,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	model := map[keys.Key]*embedding.Value{}
	modelOf := func(k keys.Key) *embedding.Value {
		if model[k] == nil {
			model[k] = embedding.NewKeyedValue(dim, m.seed, uint64(k))
		}
		return model[k]
	}
	someKeys := func() []keys.Key { // unsorted, with duplicates
		ks := make([]keys.Key, 1+rng.Intn(20))
		for i := range ks {
			ks[i] = keys.Key(1 + rng.Intn(keySpace))
		}
		return ks
	}
	deltaBlock := func(ks []keys.Key) *ps.ValueBlock {
		blk := &ps.ValueBlock{}
		blk.Reset(dim, nil)
		for _, k := range ks {
			// One delta per (key, block): duplicate rows may apply in any order.
			d := float32(1 + (int(k)+len(ks))%8)
			w, g := make([]float32, dim), make([]float32, dim)
			w[0], g[1] = d, d
			blk.AppendRow(k, w, g, 1)
			modelOf(k).AddFlat(w, g, 1)
		}
		return blk
	}
	pushPair := func(m *MemPS, ws *WorkingSet, mk []keys.Key) error {
		a, b := deltaBlock(mk), deltaBlock(mk[:len(mk)/2])
		sa, sb := make([]int32, len(mk)), make([]int32, len(mk))
		for x := range mk {
			sa[x], sb[x] = int32(x), int32(x)
			if x >= len(b.Keys) {
				sb[x] = -1
			}
		}
		_, err := m.PushBlockPair(ws, a, b, mk, sa, sb)
		return err
	}
	check := func(what string, k keys.Key, v *embedding.Value) {
		t.Helper()
		if want := modelOf(k); v == nil || v.Freq != want.Freq ||
			!slices.Equal(v.Weights, want.Weights) || !slices.Equal(v.G2Sum, want.G2Sum) {
			t.Fatalf("%s: key %d is %+v, model has %+v", what, k, v, want)
		}
	}
	for step := 0; step < 400; step++ {
		switch rng.Intn(7) {
		case 0: // a training batch: pinned pull, push, unpin
			ks := keys.Dedup(someKeys())
			blk := &ps.ValueBlock{}
			ws, err := m.PrepareInto(ks, blk)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range blk.Keys {
				check("PrepareInto", k, blk.Value(i))
			}
			if _, err := m.PushBatch(ws, deltaBlock(ks)); err != nil {
				t.Fatal(err)
			}
			if err := m.CompleteBatch(ws); err != nil {
				t.Fatal(err)
			}
		case 1: // a peer's pull, in request order
			ks := someKeys()
			blk := &ps.ValueBlock{}
			if err := m.HandlePullBlock(ks, blk); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(blk.Keys, ks) {
				t.Fatalf("HandlePullBlock reordered the request: %v for %v", blk.Keys, ks)
			}
			for i, k := range ks {
				check("HandlePullBlock", k, blk.Value(i))
			}
		case 2: // a push with unsorted, duplicate rows
			if err := m.HandlePushBlock(deltaBlock(someKeys())); err != nil {
				t.Fatal(err)
			}
		case 3: // the fused two-node push, outside a batch
			if err := pushPair(m, nil, keys.Dedup(someKeys())); err != nil {
				t.Fatal(err)
			}
		case 4: // a prepare of an unsorted request with duplicates, no push
			ks := someKeys()
			blk := &ps.ValueBlock{}
			ws, err := m.PrepareInto(ks, blk)
			if err != nil {
				t.Fatal(err)
			}
			if want := keys.Dedup(slices.Clone(ks)); !slices.Equal(blk.Keys, want) {
				t.Fatalf("PrepareInto rows hold %v, want the sorted set %v", blk.Keys, want)
			}
			for i, k := range blk.Keys {
				check("PrepareInto", k, blk.Value(i))
			}
			if err := m.CompleteBatch(ws); err != nil {
				t.Fatal(err)
			}
		case 5:
			ks := someKeys()
			got := lookupAll(t, m, ks)
			for _, k := range ks {
				if model[k] != nil { // a lookup does not materialize
					check("lookup", k, got[k])
				}
			}
		case 6: // one owner's share of a two-node batch: resolve, push, unpin
			a, b := keys.Dedup(someKeys()), keys.Dedup(someKeys())
			union := keys.Dedup(append(slices.Clone(a), b...))
			blocks := blocksFor(dim, a, b)
			ws, err := m.PrepareOwnedInto(union, blocks, ownedRows(union, a, b))
			if err != nil {
				t.Fatal(err)
			}
			for _, blk := range blocks {
				for i, k := range blk.Keys {
					check("PrepareOwnedInto", k, blk.Value(i))
				}
			}
			// The push reaches the pinned rows through the working set: half
			// of it fused, and some keys the batch never prepared.
			if err := pushPair(m, &ws, keys.Dedup(append(slices.Clone(union[len(union)/2:]), someKeys()...))); err != nil {
				t.Fatal(err)
			}
			if err := m.CompleteBatch(&ws); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Flush(); err != nil { // waits out the background write
		t.Fatal(err)
	}
	if st := m.Stats(); st.Dumped == 0 || m.Store().Len() == 0 {
		t.Fatalf("nothing reached the SSD-PS (%+v): the test exercised no cold path", st)
	}
}
