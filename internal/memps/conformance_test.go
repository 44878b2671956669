package memps

import (
	"math"
	"slices"
	"sync"
	"testing"

	"hps/internal/keys"
	"hps/internal/ps"
)

// tierKeys is the key set TestTierConformance preloads: sorted, spread over
// shards under both modulo and hash sharding.
func tierKeys() []keys.Key {
	ks := make([]keys.Key, 16)
	for i := range ks {
		ks[i] = keys.Key((i + 1) * 37)
	}
	return ks
}

// absentKey is a key TestTierConformance never preloads.
const absentKey = keys.Key(1 << 40)

// tierNode is a single-node MEM-PS holding ks, materialized by a completed
// batch (so nothing is pinned).
func tierNode(t *testing.T, ks []keys.Key) *MemPS {
	t.Helper()
	m := singleNode(t, 64, 64)
	ws, _ := prepare(t, m, ks)
	if err := m.CompleteBatch(ws); err != nil {
		t.Fatal(err)
	}
	return m
}

// served pulls ks the way a peer does, through HandlePullBlock, into a fresh
// block, and checks the shape every served pull shares: one row per request
// position, in request order, at the shard's dimension.
func served(t *testing.T, m *MemPS, ks []keys.Key) *ps.ValueBlock {
	t.Helper()
	blk := ps.NewValueBlock(m.Dim())
	if err := m.HandlePullBlock(ks, blk); err != nil {
		t.Fatalf("HandlePullBlock(%v): %v", ks, err)
	}
	if !slices.Equal(blk.Keys, ks) || blk.Dim != m.Dim() {
		t.Fatalf("served %v at dim %d, want the request %v at dim %d", blk.Keys, blk.Dim, ks, m.Dim())
	}
	return blk
}

// tierDeltas is a push block whose row i holds a recognizable delta: weight
// j is i+1+j, every accumulator (i+1)/2, the reference count 1.
func tierDeltas(dim int, ks []keys.Key) *ps.ValueBlock {
	blk := ps.NewValueBlock(dim)
	blk.Reset(dim, ks)
	for i := range ks {
		base := float32(i + 1)
		for j := 0; j < dim; j++ {
			blk.WeightsRow(i)[j] = base + float32(j)
			blk.G2Row(i)[j] = base / 2
		}
		blk.Freq[i], blk.Present[i] = 1, true
	}
	return blk
}

// sameRow reports whether row i of a and row j of b hold identical bits.
func sameRow(a *ps.ValueBlock, i int, b *ps.ValueBlock, j int) bool {
	if a.Present[i] != b.Present[j] {
		return false
	}
	return !a.Present[i] || sameBits(a.Value(i), b.Value(j))
}

// checkMoved asserts that every present row of d moved the same row of before
// by exactly its delta into after, and that masked rows moved nothing.
func checkMoved(t *testing.T, before, after, d *ps.ValueBlock) {
	t.Helper()
	for i, k := range d.Keys {
		if !d.Present[i] {
			if !sameRow(before, i, after, i) {
				t.Fatalf("key %d changed by a masked delta row", k)
			}
			continue
		}
		for j := 0; j < d.Dim; j++ {
			if w := before.WeightsRow(i)[j] + d.WeightsRow(i)[j]; after.WeightsRow(i)[j] != w {
				t.Fatalf("key %d weight[%d] = %g after push, want %g", k, j, after.WeightsRow(i)[j], w)
			}
			if g := before.G2Row(i)[j] + d.G2Row(i)[j]; after.G2Row(i)[j] != g {
				t.Fatalf("key %d g2sum[%d] = %g after push, want %g", k, j, after.G2Row(i)[j], g)
			}
		}
		if after.Freq[i] != before.Freq[i]+d.Freq[i] {
			t.Fatalf("key %d freq = %d after push, want %d", k, after.Freq[i], before.Freq[i]+d.Freq[i])
		}
	}
}

// TestTierConformance holds the MEM-PS to the promises its callers rely on:
// a pull served to a peer (HandlePullBlock) returns private copies in request
// order and materializes first references; a pushed delta block (PushBlock)
// moves each present row by exactly its delta; eviction demotes to the SSD-PS,
// so evicted keys are served back unchanged; and the uniform statistics count
// every operation.
func TestTierConformance(t *testing.T) {
	t.Run("PullPresent", func(t *testing.T) {
		ks := tierKeys()
		m := tierNode(t, ks)
		first := served(t, m, ks)
		for i, k := range ks {
			if !first.Present[i] {
				t.Fatalf("preloaded key %d absent", k)
			}
			if m.cache.Pinned(uint64(k)) {
				t.Fatalf("a served pull pinned key %d", k)
			}
		}
		second := served(t, m, ks)
		for i, k := range ks {
			if !sameRow(first, i, second, i) {
				t.Fatalf("key %d unstable across pulls without writes", k)
			}
		}
	})
	t.Run("PullEmpty", func(t *testing.T) {
		m := tierNode(t, tierKeys())
		if blk := served(t, m, nil); blk.Len() != 0 {
			t.Fatalf("empty pull returned %d rows", blk.Len())
		}
	})
	t.Run("PullIsolation", func(t *testing.T) {
		ks := tierKeys()[:4]
		m := tierNode(t, ks)
		before := served(t, m, ks)
		for i := range before.Weights {
			before.Weights[i] = math.MaxFloat32
		}
		after := served(t, m, ks)
		for i, k := range ks {
			if slices.Contains(after.WeightsRow(i), math.MaxFloat32) {
				t.Fatalf("key %d: served row aliases shard storage", k)
			}
		}
	})
	t.Run("PullMissing", func(t *testing.T) {
		m := tierNode(t, tierKeys())
		blk := served(t, m, []keys.Key{absentKey})
		if !blk.Present[0] {
			t.Fatal("a served first reference was left absent, not materialized")
		}
		if again := served(t, m, []keys.Key{absentKey}); !sameRow(blk, 0, again, 0) {
			t.Fatal("materialized key not stable across pulls")
		}
	})
	t.Run("PushAccumulates", func(t *testing.T) {
		ks := tierKeys()
		m := tierNode(t, ks)
		before := served(t, m, ks)
		d := tierDeltas(m.Dim(), ks)
		push(t, m, d)
		checkMoved(t, before, served(t, m, ks), d)
	})
	t.Run("PushMissing", func(t *testing.T) {
		// Create then merge: a delta for an unknown owned key materializes it.
		m := tierNode(t, tierKeys())
		push(t, m, tierDeltas(m.Dim(), []keys.Key{absentKey}))
		if m.Lookup(absentKey) == nil {
			t.Fatal("a pushed delta for a first reference was dropped")
		}
	})
	t.Run("PushEmpty", func(t *testing.T) {
		m := tierNode(t, tierKeys())
		pushes := m.TierStats().KeysPushed
		push(t, m, ps.NewValueBlock(m.Dim()))
		if got := m.TierStats().KeysPushed; got != pushes {
			t.Fatalf("an empty push counted %d keys", got-pushes)
		}
	})
	t.Run("Evict", func(t *testing.T) {
		ks := tierKeys()
		m := tierNode(t, ks)
		victims := ks[:8]
		want := served(t, m, victims)
		n, err := m.Evict(victims)
		if err != nil || n != len(victims) {
			t.Fatalf("Evict = (%d, %v), want (%d, nil)", n, err, len(victims))
		}
		got := served(t, m, victims)
		for i, k := range victims {
			if !m.Store().Contains(k) {
				t.Fatalf("evicted key %d is not on the SSD-PS", k)
			}
			if !sameRow(want, i, got, i) {
				t.Fatalf("evicted key %d served back changed", k)
			}
		}
		if got := served(t, m, ks[8:]).PresentCount(); got != len(ks)-8 {
			t.Fatalf("evict disturbed unrelated keys: %d of %d readable", got, len(ks)-8)
		}
	})
	t.Run("Stats", func(t *testing.T) {
		ks := tierKeys()
		m := tierNode(t, ks)
		if m.Name() != "mem-ps" {
			t.Fatalf("name = %q", m.Name())
		}
		base := m.TierStats()
		served(t, m, ks)
		afterPull := m.TierStats()
		if afterPull.Pulls != base.Pulls+1 || afterPull.KeysPulled != base.KeysPulled+int64(len(ks)) {
			t.Fatalf("a pull of %d keys moved the stats %+v -> %+v", len(ks), base, afterPull)
		}
		push(t, m, tierDeltas(m.Dim(), ks[:2]))
		afterPush := m.TierStats()
		if afterPush.Pushes != afterPull.Pushes+1 || afterPush.KeysPushed != afterPull.KeysPushed+2 {
			t.Fatalf("a push of 2 keys moved the stats %+v -> %+v", afterPull, afterPush)
		}
		if _, err := m.Evict(ks[:2]); err != nil {
			t.Fatal(err)
		}
		afterEvict := m.TierStats()
		if afterEvict.Evictions <= afterPush.Evictions || afterEvict.KeysEvicted != afterPush.KeysEvicted+2 {
			t.Fatalf("an eviction of 2 keys moved the stats %+v -> %+v", afterPush, afterEvict)
		}
	})
	t.Run("ConcurrentPulls", func(t *testing.T) {
		// Shard servers serve their peers concurrently (run under -race).
		ks := tierKeys()
		m := tierNode(t, ks)
		want := served(t, m, ks)
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				blk := ps.NewValueBlock(m.Dim())
				for range 20 {
					if err := m.HandlePullBlock(ks, blk); err != nil {
						t.Error(err)
						return
					}
					for r, k := range ks {
						if !sameRow(blk, r, want, r) {
							t.Errorf("concurrent pull returned a corrupt value for key %d", k)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
	t.Run("BlockPullAgrees", func(t *testing.T) {
		// Pooled blocks arrive dirty, sized for another batch and dimension.
		ks := tierKeys()
		m := tierNode(t, ks)
		want := served(t, m, ks)
		dirty := ps.NewValueBlock(m.Dim() + 3)
		dirty.Reset(m.Dim()+3, slices.Concat(ks, ks))
		for i := range dirty.Weights {
			dirty.Weights[i], dirty.G2Sum[i] = -7, -7
		}
		for i := range dirty.Freq {
			dirty.Freq[i], dirty.Present[i] = 99, true
		}
		if err := m.HandlePullBlock(ks, dirty); err != nil {
			t.Fatal(err)
		}
		if dirty.Dim != m.Dim() || !slices.Equal(dirty.Keys, ks) {
			t.Fatalf("reused block reshaped to %d rows of dim %d, want %d of dim %d", dirty.Len(), dirty.Dim, len(ks), m.Dim())
		}
		for i, k := range ks {
			if !sameRow(want, i, dirty, i) {
				t.Fatalf("key %d: reused-block row differs from a fresh pull", k)
			}
		}
	})
	t.Run("BlockPullUnsortedOrder", func(t *testing.T) {
		// The wire binds reply rows to the requester's key order positionally.
		ks := tierKeys()
		m := tierNode(t, ks)
		want := served(t, m, ks)
		rev := slices.Clone(ks)
		slices.Reverse(rev)
		blk := served(t, m, rev)
		for i, k := range rev {
			if !blk.Present[i] || !sameRow(blk, i, want, len(ks)-1-i) {
				t.Fatalf("key %d: reversed-request row holds the wrong value", k)
			}
		}
	})
	t.Run("BlockPullDuplicates", func(t *testing.T) {
		ks := tierKeys()
		m := tierNode(t, ks)
		want := served(t, m, ks)
		req := []keys.Key{ks[5], ks[1], ks[5], ks[9], ks[1], ks[1], ks[0]}
		blk := served(t, m, req)
		for i, k := range req {
			if !sameRow(blk, i, want, slices.Index(ks, k)) {
				t.Fatalf("row %d (key %d) differs from the key's value", i, k)
			}
		}
	})
	t.Run("BlockPullMissing", func(t *testing.T) {
		ks := tierKeys()
		m := tierNode(t, ks)
		want := served(t, m, ks[:2])
		blk := served(t, m, []keys.Key{ks[0], absentKey, ks[1]})
		if !sameRow(blk, 0, want, 0) || !sameRow(blk, 2, want, 1) {
			t.Fatal("a first reference disturbed the present rows around it")
		}
		if !blk.Present[1] {
			t.Fatal("the first reference was left absent")
		}
	})
	t.Run("BlockPushAgrees", func(t *testing.T) {
		// Callers reuse blocks and mask rows instead of compacting them: a
		// masked row moves nothing, whatever it holds, and is not counted.
		ks := tierKeys()
		m := tierNode(t, ks)
		before := served(t, m, ks)
		pushed := m.TierStats().KeysPushed
		d := tierDeltas(m.Dim(), ks)
		for i := 0; i < len(ks); i += 2 {
			d.Present[i], d.WeightsRow(i)[0] = false, math.MaxFloat32
		}
		push(t, m, d)
		checkMoved(t, before, served(t, m, ks), d)
		if got := m.TierStats().KeysPushed - pushed; got != int64(d.PresentCount()) {
			t.Fatalf("KeysPushed advanced by %d, want the %d present rows", got, d.PresentCount())
		}
		masked := tierDeltas(m.Dim(), []keys.Key{absentKey})
		masked.Present[0] = false
		if push(t, m, masked); m.Lookup(absentKey) != nil {
			t.Fatal("a masked row created its key")
		}
		// Duplicate rows accumulate.
		before = served(t, m, ks[1:2])
		push(t, m, weightDeltas(m.Dim(), []keys.Key{ks[1], ks[1]}, func(keys.Key) float32 { return 1 }, 0))
		if got, want := m.Lookup(ks[1]).Weights[0], before.WeightsRow(0)[0]+2; got != want {
			t.Fatalf("duplicate rows moved key %d to %v, want %v", ks[1], got, want)
		}
	})
	t.Run("BlockPullIsolation", func(t *testing.T) {
		// A served block is a snapshot, and a pushed block is not retained.
		ks := tierKeys()[:4]
		m := tierNode(t, ks)
		snap := served(t, m, ks)
		keep := ps.NewValueBlock(m.Dim())
		keep.CopyFrom(snap)
		d := tierDeltas(m.Dim(), ks)
		push(t, m, d)
		for i, k := range ks {
			if !sameRow(snap, i, keep, i) {
				t.Fatalf("key %d: a push showed through a previously served block", k)
			}
		}
		after := served(t, m, ks)
		for i := range d.Weights {
			d.Weights[i] = math.MaxFloat32
		}
		again := served(t, m, ks)
		for i, k := range ks {
			if !sameRow(after, i, again, i) {
				t.Fatalf("key %d: the shard retained the pushed block", k)
			}
		}
	})
}
