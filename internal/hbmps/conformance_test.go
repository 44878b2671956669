package hbmps

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"hps/internal/keys"
	"hps/internal/ps"
)

// tierKeys is the working set TestTierConformance loads: sorted, spread over
// both GPUs' partitions.
func tierKeys() []keys.Key {
	ks := make([]keys.Key, 16)
	for i := range ks {
		ks[i] = keys.Key((i + 1) * 37)
	}
	return ks
}

// absentKey is a key TestTierConformance never loads.
const absentKey = keys.Key(1 << 40)

// tierHBM is a two-GPU HBM-PS with ks loaded, key i holding weight 0 = i+1
// and a non-zero accumulator and count.
func tierHBM(t *testing.T, ks []keys.Key) *HBMPS {
	t.Helper()
	h, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ws := ps.NewValueBlock(4)
	for i, k := range ks {
		ws.AppendRow(k, []float32{float32(i + 1), 0.5, 0, 0}, []float32{0.25, 0, 0, 0}, uint32(i))
	}
	if err := h.LoadBlock(ws); err != nil {
		t.Fatal(err)
	}
	return h
}

// pulled pulls ks for a worker on gpu and checks the shape every pull shares:
// one row per request position, in request order, at the tier's dimension.
func pulled(t *testing.T, h *HBMPS, gpu int, ks []keys.Key) *ps.ValueBlock {
	t.Helper()
	blk, err := pull(h, gpu, ks)
	if err != nil {
		t.Fatalf("PullInto(%v): %v", ks, err)
	}
	if !slices.Equal(blk.Keys, ks) || blk.Dim != h.cfg.Dim {
		t.Fatalf("pulled %v at dim %d, want the request %v at dim %d", blk.Keys, blk.Dim, ks, h.cfg.Dim)
	}
	return blk
}

// tierDeltas is a delta block whose row i holds a recognizable delta: weight
// j is i+1+j, every accumulator (i+1)/2, the count 1.
func tierDeltas(ks []keys.Key) *ps.ValueBlock {
	blk := ps.NewValueBlock(4)
	blk.Reset(4, ks)
	for i := range ks {
		base := float32(i + 1)
		for j := 0; j < 4; j++ {
			blk.WeightsRow(i)[j] = base + float32(j)
			blk.G2Row(i)[j] = base / 2
		}
		blk.Freq[i], blk.Present[i] = 1, true
	}
	return blk
}

// commitDelta commits d the way a worker on gpu does: it pulls d's keys,
// adds each present row of d to its pulled row (a masked row is a key the
// worker pulled and left unchanged) and commits both blocks. It returns the
// committed blocks.
func commitDelta(t *testing.T, h *HBMPS, gpu int, d *ps.ValueBlock) (orig, final *ps.ValueBlock) {
	t.Helper()
	orig = pulled(t, h, gpu, d.Keys)
	final = ps.NewValueBlock(4)
	final.CopyFrom(orig)
	for i := range d.Keys {
		if !d.Present[i] {
			continue
		}
		for j := range final.WeightsRow(i) {
			final.WeightsRow(i)[j] += d.WeightsRow(i)[j]
			final.G2Row(i)[j] += d.G2Row(i)[j]
		}
		final.Freq[i] += d.Freq[i]
	}
	if err := h.CommitBlock(gpu, orig, final); err != nil {
		t.Fatalf("CommitBlock: %v", err)
	}
	return orig, final
}

// sameRow reports whether row i of a and row j of b hold identical values.
func sameRow(a *ps.ValueBlock, i int, b *ps.ValueBlock, j int) bool {
	return a.Present[i] == b.Present[j] && a.Freq[i] == b.Freq[j] &&
		slices.Equal(a.WeightsRow(i), b.WeightsRow(j)) && slices.Equal(a.G2Row(i), b.G2Row(j))
}

// checkMoved asserts that every present row of d moved the same row of before
// by exactly its delta into after, and that masked rows moved nothing.
func checkMoved(t *testing.T, before, after, d *ps.ValueBlock) {
	t.Helper()
	for i, k := range d.Keys {
		if !d.Present[i] {
			if !sameRow(before, i, after, i) {
				t.Fatalf("key %d changed by an unchanged commit row", k)
			}
			continue
		}
		for j := 0; j < d.Dim; j++ {
			if w := before.WeightsRow(i)[j] + d.WeightsRow(i)[j]; after.WeightsRow(i)[j] != w {
				t.Fatalf("key %d weight[%d] = %g after commit, want %g", k, j, after.WeightsRow(i)[j], w)
			}
			if g := before.G2Row(i)[j] + d.G2Row(i)[j]; after.G2Row(i)[j] != g {
				t.Fatalf("key %d g2sum[%d] = %g after commit, want %g", k, j, after.G2Row(i)[j], g)
			}
		}
		if after.Freq[i] != before.Freq[i]+d.Freq[i] {
			t.Fatalf("key %d freq = %d after commit, want %d", k, after.Freq[i], before.Freq[i]+d.Freq[i])
		}
	}
}

// TestTierConformance holds the HBM-PS to the promises its workers rely on:
// a pull (PullInto) from either GPU returns private copies of the loaded
// working set in request order, and naming a key outside it is a bug that
// fails by name; a commit (CommitBlock) moves each key by exactly the
// worker's change; eviction retires keys, whose authoritative copies live in
// the MEM-PS below; and the uniform statistics count every operation.
func TestTierConformance(t *testing.T) {
	t.Run("PullPresent", func(t *testing.T) {
		ks := tierKeys()
		h := tierHBM(t, ks)
		first := pulled(t, h, 0, ks)
		for i, k := range ks {
			if !first.Present[i] || first.WeightsRow(i)[0] != float32(i+1) {
				t.Fatalf("loaded key %d pulled as %+v", k, first.Value(i))
			}
		}
		second := pulled(t, h, 1, ks)
		for i, k := range ks {
			if !sameRow(first, i, second, i) {
				t.Fatalf("key %d differs between pulls without writes", k)
			}
		}
	})
	t.Run("PullEmpty", func(t *testing.T) {
		h := tierHBM(t, tierKeys())
		if blk := pulled(t, h, 0, nil); blk.Len() != 0 {
			t.Fatalf("empty pull returned %d rows", blk.Len())
		}
	})
	t.Run("PullIsolation", func(t *testing.T) {
		ks := tierKeys()[:4]
		h := tierHBM(t, ks)
		before := pulled(t, h, 0, ks)
		for i := range before.Weights {
			before.Weights[i] = math.MaxFloat32
		}
		after := pulled(t, h, 0, ks)
		for i, k := range ks {
			if slices.Contains(after.WeightsRow(i), math.MaxFloat32) {
				t.Fatalf("key %d: pulled row aliases HBM storage", k)
			}
		}
	})
	t.Run("PullMissing", func(t *testing.T) {
		h := tierHBM(t, tierKeys())
		if _, err := pull(h, 0, []keys.Key{absentKey}); err == nil || !strings.Contains(err.Error(), "1099511627776") {
			t.Fatalf("pulling a key outside the working set = %v, want an error naming it", err)
		}
	})
	t.Run("PushAccumulates", func(t *testing.T) {
		ks := tierKeys()
		h := tierHBM(t, ks)
		before := pulled(t, h, 0, ks)
		d := tierDeltas(ks)
		commitDelta(t, h, 1, d)
		checkMoved(t, before, pulled(t, h, 0, ks), d)
	})
	t.Run("PushMissing", func(t *testing.T) {
		// A commit naming a key outside the working set fails by name after
		// every resident key of it has been written.
		ks := tierKeys()
		h := tierHBM(t, ks)
		orig := pulled(t, h, 0, ks[:1])
		orig.AppendRow(absentKey, make([]float32, 4), make([]float32, 4), 0)
		final := ps.NewValueBlock(4)
		final.CopyFrom(orig)
		final.WeightsRow(0)[0] += 3
		err := h.CommitBlock(0, orig, final)
		if err == nil || !strings.Contains(err.Error(), "1099511627776") {
			t.Fatalf("committing a key outside the working set = %v, want an error naming it", err)
		}
		if got := pulled(t, h, 0, ks[:1]).WeightsRow(0)[0]; got != orig.WeightsRow(0)[0]+3 {
			t.Fatalf("the resident key reads %v, want its committed %v", got, orig.WeightsRow(0)[0]+3)
		}
	})
	t.Run("PushEmpty", func(t *testing.T) {
		h := tierHBM(t, tierKeys())
		pushed := h.TierStats().KeysPushed
		if err := h.CommitBlock(0, ps.NewValueBlock(4), ps.NewValueBlock(4)); err != nil {
			t.Fatalf("empty commit: %v", err)
		}
		if got := h.TierStats().KeysPushed; got != pushed {
			t.Fatalf("an empty commit counted %d keys", got-pushed)
		}
	})
	t.Run("Evict", func(t *testing.T) {
		ks := tierKeys()
		h := tierHBM(t, ks)
		victims := ks[:8]
		if n, err := h.Evict(victims); err != nil || n != len(victims) {
			t.Fatalf("Evict = (%d, %v), want (%d, nil)", n, err, len(victims))
		}
		for _, k := range victims {
			if _, err := pull(h, 0, []keys.Key{k}); err == nil {
				t.Fatalf("evicted key %d is still pullable", k)
			}
		}
		if n, err := h.Evict(victims); err != nil || n != 0 {
			t.Fatalf("second evict = (%d, %v), want (0, nil)", n, err)
		}
		if got := pulled(t, h, 1, ks[8:]).PresentCount(); got != len(ks)-8 {
			t.Fatalf("evict disturbed unrelated keys: %d of %d readable", got, len(ks)-8)
		}
	})
	t.Run("Stats", func(t *testing.T) {
		ks := tierKeys()
		h := tierHBM(t, ks)
		if h.Name() != "hbm-ps" {
			t.Fatalf("name = %q", h.Name())
		}
		base := h.TierStats()
		pulled(t, h, 0, ks)
		afterPull := h.TierStats()
		if afterPull.Pulls != base.Pulls+1 || afterPull.KeysPulled != base.KeysPulled+int64(len(ks)) {
			t.Fatalf("a pull of %d keys moved the stats %+v -> %+v", len(ks), base, afterPull)
		}
		commitDelta(t, h, 0, tierDeltas(ks[:2]))
		afterPush := h.TierStats()
		if afterPush.Pushes != afterPull.Pushes+1 || afterPush.KeysPushed != afterPull.KeysPushed+2 {
			t.Fatalf("a commit of 2 keys moved the stats %+v -> %+v", afterPull, afterPush)
		}
		if _, err := h.Evict(ks[:2]); err != nil {
			t.Fatal(err)
		}
		afterEvict := h.TierStats()
		if afterEvict.Evictions != afterPush.Evictions+1 || afterEvict.KeysEvicted != afterPush.KeysEvicted+2 {
			t.Fatalf("an eviction of 2 keys moved the stats %+v -> %+v", afterPush, afterEvict)
		}
	})
	t.Run("ConcurrentPulls", func(t *testing.T) {
		// Every GPU's worker pulls at once (run under -race).
		ks := tierKeys()
		h := tierHBM(t, ks)
		want := pulled(t, h, 0, ks)
		var wg sync.WaitGroup
		for w := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				blk := ps.NewValueBlock(4)
				for range 20 {
					if err := h.PullInto(ps.PullRequest{Shard: w % 2, Keys: ks}, blk); err != nil {
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
		h := tierHBM(t, ks)
		want := pulled(t, h, 0, ks)
		dirty := ps.NewValueBlock(7)
		dirty.Reset(7, slices.Concat(ks, ks))
		for i := range dirty.Weights {
			dirty.Weights[i], dirty.G2Sum[i] = -7, -7
		}
		for i := range dirty.Freq {
			dirty.Freq[i], dirty.Present[i] = 99, true
		}
		if err := h.PullInto(ps.PullRequest{Shard: 0, Keys: ks}, dirty); err != nil {
			t.Fatal(err)
		}
		if dirty.Dim != 4 || !slices.Equal(dirty.Keys, ks) {
			t.Fatalf("reused block reshaped to %d rows of dim %d, want %d of dim 4", dirty.Len(), dirty.Dim, len(ks))
		}
		for i, k := range ks {
			if !sameRow(want, i, dirty, i) {
				t.Fatalf("key %d: reused-block row differs from a fresh pull", k)
			}
		}
	})
	t.Run("BlockPullUnsortedOrder", func(t *testing.T) {
		ks := tierKeys()
		h := tierHBM(t, ks)
		want := pulled(t, h, 0, ks)
		rev := slices.Clone(ks)
		slices.Reverse(rev)
		blk := pulled(t, h, 1, rev)
		for i, k := range rev {
			if !sameRow(blk, i, want, len(ks)-1-i) {
				t.Fatalf("key %d: reversed-request row holds the wrong value", k)
			}
		}
	})
	t.Run("BlockPullDuplicates", func(t *testing.T) {
		ks := tierKeys()
		h := tierHBM(t, ks)
		want := pulled(t, h, 0, ks)
		req := []keys.Key{ks[5], ks[1], ks[5], ks[9], ks[1], ks[1], ks[0]}
		blk := pulled(t, h, 1, req)
		for i, k := range req {
			if !sameRow(blk, i, want, slices.Index(ks, k)) {
				t.Fatalf("row %d (key %d) differs from the key's value", i, k)
			}
		}
	})
	t.Run("BlockPullMissing", func(t *testing.T) {
		ks := tierKeys()
		h := tierHBM(t, ks)
		if _, err := pull(h, 0, []keys.Key{ks[0], absentKey, ks[1]}); err == nil || !strings.Contains(err.Error(), "1099511627776") {
			t.Fatalf("a request naming a key outside the working set = %v, want an error naming it", err)
		}
	})
	t.Run("BlockPushAgrees", func(t *testing.T) {
		// Rows the worker left unchanged move nothing; every row counts.
		ks := tierKeys()
		h := tierHBM(t, ks)
		before := pulled(t, h, 0, ks)
		pushed := h.TierStats().KeysPushed
		d := tierDeltas(ks)
		for i := 0; i < len(ks); i += 2 {
			d.Present[i], d.WeightsRow(i)[0] = false, math.MaxFloat32
		}
		commitDelta(t, h, 1, d)
		checkMoved(t, before, pulled(t, h, 0, ks), d)
		if got := h.TierStats().KeysPushed - pushed; got != int64(len(ks)) {
			t.Fatalf("KeysPushed advanced by %d, want the %d committed rows", got, len(ks))
		}
		// Duplicate rows accumulate.
		before = pulled(t, h, 0, ks[1:2])
		commitDelta(t, h, 0, tierDeltas([]keys.Key{ks[1], ks[1]}))
		if got, want := pulled(t, h, 0, ks[1:2]).WeightsRow(0)[0], before.WeightsRow(0)[0]+1+2; got != want {
			t.Fatalf("duplicate rows moved key %d to %v, want %v", ks[1], got, want)
		}
	})
	t.Run("BlockPullIsolation", func(t *testing.T) {
		// A pulled block is a snapshot, and committed blocks are not retained.
		ks := tierKeys()[:4]
		h := tierHBM(t, ks)
		snap := pulled(t, h, 0, ks)
		keep := ps.NewValueBlock(4)
		keep.CopyFrom(snap)
		orig, final := commitDelta(t, h, 1, tierDeltas(ks))
		for i, k := range ks {
			if !sameRow(snap, i, keep, i) {
				t.Fatalf("key %d: a commit showed through a previously pulled block", k)
			}
		}
		after := pulled(t, h, 0, ks)
		for i := range final.Weights {
			orig.Weights[i], final.Weights[i] = math.MaxFloat32, math.MaxFloat32
		}
		again := pulled(t, h, 0, ks)
		for i, k := range ks {
			if !sameRow(after, i, again, i) {
				t.Fatalf("key %d: the tier retained a committed block", k)
			}
		}
	})
}
