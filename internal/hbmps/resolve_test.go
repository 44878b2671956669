package hbmps

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"hps/internal/keys"
	"hps/internal/ps"
)

// evenWorkingSet is a loadable block of the keys 0, 2, ..., 2(n-1), key k
// with weight 0 = k, so odd keys are never resident.
func evenWorkingSet(n int) *ps.ValueBlock {
	blk := ps.NewValueBlock(4)
	for i := 0; i < n; i++ {
		blk.AppendRow(keys.Key(2*i), []float32{float32(2 * i), 0, 0, 0}, make([]float32, 4), uint32(i))
	}
	return blk
}

// TestResolveAnyRequestOrder pulls the same keys in ascending, descending,
// shuffled and repeated order: a request that steps backwards is resolved by
// binary search instead of the forward merge, and every order must return
// the rows of the ascending request.
func TestResolveAnyRequestOrder(t *testing.T) {
	for _, gpus := range []int{1, 3} {
		h, _ := New(testConfig(gpus))
		ws := evenWorkingSet(300)
		if err := h.LoadBlock(ws); err != nil {
			t.Fatal(err)
		}
		sorted := []keys.Key{0, 2, 4, 8, 100, 102, 250, 402, 598}
		want, err := pull(h, 0, sorted)
		if err != nil {
			t.Fatal(err)
		}
		rowOf := map[keys.Key]int{}
		for i, k := range sorted {
			rowOf[k] = i
		}
		descending := slices.Clone(sorted)
		slices.Reverse(descending)
		shuffled := slices.Clone(sorted)
		rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		repeated := []keys.Key{598, 0, 598, 100, 100, 2, 0}
		for _, req := range [][]keys.Key{descending, shuffled, repeated} {
			got, err := pull(h, gpus-1, req)
			if err != nil {
				t.Fatalf("gpus=%d, request %v: %v", gpus, req, err)
			}
			for i, k := range req {
				w := rowOf[k]
				if !got.Present[i] || got.Freq[i] != want.Freq[w] ||
					!slices.Equal(got.WeightsRow(i), want.WeightsRow(w)) || !slices.Equal(got.G2Row(i), want.G2Row(w)) {
					t.Fatalf("gpus=%d, request %v: row %d (key %d) differs from the ascending pull", gpus, req, i, k)
				}
			}
		}
	}
}

// TestCursorMatchesBinarySearch drives the cursor with random request
// sequences — ascending runs with repeats and gaps, broken by jumps in both
// directions — over random sorted rows, and checks every answer against a
// plain binary search.
func TestCursorMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		rows := randomKeys(rng, n, 1, false)
		for i := range rows {
			rows[i] %= keys.Key(4*n + 10)
		}
		rows = keys.Dedup(rows)
		pos := make([]int32, len(rows))
		for i := range pos {
			pos[i] = int32(7 * i)
		}
		c := cursor{rows: rows, pos: pos}
		k := keys.Key(0)
		for q := 0; q < 400; q++ {
			if rng.Intn(10) == 0 {
				k = keys.Key(rng.Intn(4*n + 12))
			} else {
				k += keys.Key(rng.Intn(4))
			}
			want, found := slices.BinarySearch(rows, k)
			p, ok := c.position(k)
			if ok != found || (ok && p != int(pos[want])) {
				t.Fatalf("trial %d, query %d: position(%d) = (%d, %v), want (%d, %v)",
					trial, q, k, p, ok, 7*want, found)
			}
		}
	}
}

// TestMissingKeyFailsByName requests a key outside the working set in the
// middle of a block: PullInto and CommitBlock fail naming it, and the commit
// has still written every resident key of the block.
func TestMissingKeyFailsByName(t *testing.T) {
	h, _ := New(testConfig(4))
	if err := h.LoadBlock(evenWorkingSet(20)); err != nil {
		t.Fatal(err)
	}
	req := []keys.Key{2, 4, 5, 10, 16, 38}
	if _, err := pull(h, 1, req); err == nil || !strings.Contains(err.Error(), "key 5 not in the working set") {
		t.Fatalf("PullInto of a missing key: %v", err)
	}
	orig, final := ps.NewValueBlock(4), ps.NewValueBlock(4)
	for _, k := range req {
		orig.AppendRow(k, []float32{float32(k), 0, 0, 0}, make([]float32, 4), uint32(k/2))
		final.AppendRow(k, []float32{float32(k) + 1, 0, 0, 0}, []float32{0, 2, 0, 0}, uint32(k/2)+3)
	}
	err := h.CommitBlock(1, orig, final)
	if err == nil || !strings.Contains(err.Error(), "key 5 not in the working set") {
		t.Fatalf("CommitBlock of a missing key: %v", err)
	}
	present := []keys.Key{2, 4, 10, 16, 38}
	got, err := pull(h, 0, present)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range present {
		if got.WeightsRow(i)[0] != float32(k)+1 || got.G2Row(i)[1] != 2 || got.Freq[i] != uint32(k/2)+3 {
			t.Fatalf("key %d not committed before the failure: w %v g2 %v freq %d",
				k, got.WeightsRow(i), got.G2Row(i), got.Freq[i])
		}
	}
}

// TestEvictedKeyLeavesTheWorkingSet evicts one changed key: a pull of it
// fails, a later commit naming it fails by name after writing its
// neighbour, and collection reports it as unchanged while its neighbour's
// deltas still arrive.
func TestEvictedKeyLeavesTheWorkingSet(t *testing.T) {
	h, _ := New(testConfig(2))
	if err := h.LoadBlock(evenWorkingSet(10)); err != nil {
		t.Fatal(err)
	}
	// Committed against an all-zero orig, final's rows add as deltas.
	final := ps.NewValueBlock(4)
	final.AppendRow(4, []float32{1, 0, 0, 0}, make([]float32, 4), 1)
	final.AppendRow(6, []float32{1, 0, 0, 0}, make([]float32, 4), 1)
	orig := ps.NewValueBlock(4)
	orig.Reset(4, final.Keys)
	if err := h.CommitBlock(0, orig, final); err != nil {
		t.Fatal(err)
	}
	if n, err := h.Evict([]keys.Key{6}); err != nil || n != 1 {
		t.Fatalf("evict = (%d, %v), want (1, nil)", n, err)
	}
	if _, err := pull(h, 0, []keys.Key{6}); err == nil || !strings.Contains(err.Error(), "key 6 not in the working set") {
		t.Fatalf("pull of an evicted key: %v", err)
	}
	if err := h.CommitBlock(0, orig, final); err == nil || !strings.Contains(err.Error(), "key 6 not in the working set") {
		t.Fatalf("commit naming an evicted key: %v", err)
	}
	updates := collect(h)
	if _, ok := updates[6]; ok || len(updates) != 1 {
		t.Fatalf("collected %d deltas, want only key 4's", len(updates))
	}
	if d := updates[4]; d == nil || d.Weights[0] != 2 || d.Freq != 2 {
		t.Fatalf("key 4's delta = %+v, want both commits", d)
	}
}

// TestLoadRejectsUnsortedBlock loads blocks with a repeated and a descending
// key: both fail naming the order, and leave nothing loaded or reserved.
func TestLoadRejectsUnsortedBlock(t *testing.T) {
	for name, ks := range map[string][]keys.Key{
		"repeated":   {1, 3, 3, 7},
		"descending": {1, 9, 7, 11},
	} {
		h, _ := New(testConfig(2))
		blk := ps.NewValueBlock(4)
		for _, k := range ks {
			blk.AppendRow(k, make([]float32, 4), make([]float32, 4), 0)
		}
		err := h.LoadBlock(blk)
		if err == nil || !strings.Contains(err.Error(), "not strictly ascending") {
			t.Fatalf("%s: LoadBlock = %v, want a key-order error", name, err)
		}
		if h.loaded || h.WorkingSetSize() != 0 {
			t.Fatalf("%s: a rejected block left a working set", name)
		}
		for _, dev := range h.devices {
			if dev.HBMUsed() != 0 {
				t.Fatalf("%s: a rejected block reserved %d bytes on %v", name, dev.HBMUsed(), dev)
			}
		}
	}
}

// TestConcurrentWorkersMatchModel is the seeded differential check of the
// working-set lock: two to four workers on different GPUs pull and commit
// overlapping sorted subsets at once — every subset holds the same hot keys
// — and the collected deltas must match the serial model fed the same
// commits. Values and updates are multiples of 1/16 of small magnitude, so
// every sum is exact in float32 and the order the commits land in cannot
// change a bit.
func TestConcurrentWorkersMatchModel(t *testing.T) {
	const dim, n, hot, rounds = 4, 600, 24, 12
	for _, tc := range []struct{ gpus, workers int }{{2, 2}, {2, 3}, {4, 4}} {
		t.Run(fmt.Sprintf("gpus=%d/workers=%d", tc.gpus, tc.workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(31*tc.gpus + tc.workers)))
			ks := randomKeys(rng, n, tc.gpus, false)
			sixteenth := func(r *rand.Rand) float32 { return float32(r.Intn(64)-32) / 16 }
			blk := ps.NewValueBlock(dim)
			for _, k := range ks {
				w, g2 := make([]float32, dim), make([]float32, dim)
				for e := range w {
					w[e], g2[e] = sixteenth(rng), float32(rng.Intn(32))/16
				}
				blk.AppendRow(k, w, g2, uint32(rng.Intn(4)))
			}
			h, err := New(testConfig(tc.gpus))
			if err != nil {
				t.Fatal(err)
			}
			if err := h.LoadBlock(blk); err != nil {
				t.Fatal(err)
			}
			type commit struct{ orig, final *ps.ValueBlock }
			done := make([][]commit, tc.workers)
			var wg sync.WaitGroup
			for w := 0; w < tc.workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(1000 + w)))
					for round := 0; round < rounds; round++ {
						var sub []keys.Key
						for i, k := range ks {
							if i < hot || r.Intn(4) == 0 {
								sub = append(sub, k)
							}
						}
						orig, final := ps.NewValueBlock(dim), ps.NewValueBlock(dim)
						if err := h.PullInto(ps.PullRequest{Shard: w % tc.gpus, Keys: sub}, orig); err != nil {
							t.Error(err)
							return
						}
						final.CopyFrom(orig)
						for i := range sub {
							for e := range final.WeightsRow(i) {
								final.WeightsRow(i)[e] += sixteenth(r)
								final.G2Row(i)[e] += float32(r.Intn(4)) / 16
							}
							final.Freq[i] += uint32(r.Intn(3))
						}
						if err := h.CommitBlock(w%tc.gpus, orig, final); err != nil {
							t.Error(err)
							return
						}
						done[w] = append(done[w], commit{orig, final})
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			m := newModel(blk)
			for _, cs := range done {
				for _, c := range cs {
					m.commit(c.orig, c.final)
				}
			}
			got := ps.NewValueBlock(dim)
			h.CollectBlock(got)
			if err := sameBlocks(got, m.collect()); err != nil {
				t.Fatalf("collected deltas differ from the serial model: %v", err)
			}
		})
	}
}
