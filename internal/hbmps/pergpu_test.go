package hbmps

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"hps/internal/embedding"
	"hps/internal/keys"
	"hps/internal/ps"
)

// model is the serial reference of the HBM-PS working set: one value per key,
// every operation applied key by key with the same float32 expressions as the
// tier, so the tier's grouped and concurrent passes must match it bit for bit.
type model struct {
	dim    int
	loaded []keys.Key // working-set order
	base   map[keys.Key]*embedding.Value
	cur    map[keys.Key]*embedding.Value
}

func newModel(blk *ps.ValueBlock) *model {
	m := &model{dim: blk.Dim, loaded: slices.Clone(blk.Keys),
		base: map[keys.Key]*embedding.Value{}, cur: map[keys.Key]*embedding.Value{}}
	for i, k := range blk.Keys {
		m.base[k] = blk.Value(i)
		m.cur[k] = blk.Value(i)
	}
	return m
}

func (m *model) commit(orig, final *ps.ValueBlock) {
	for i, k := range final.Keys {
		v := m.cur[k]
		ow, og, fw, fg := orig.WeightsRow(i), orig.G2Row(i), final.WeightsRow(i), final.G2Row(i)
		for e := range v.Weights {
			v.Weights[e] = fw[e] + (v.Weights[e] - ow[e])
			v.G2Sum[e] = fg[e] + (v.G2Sum[e] - og[e])
		}
		v.Freq += final.Freq[i] - orig.Freq[i]
	}
}

// collect is CollectBlock's contract: changed keys only, working-set order.
func (m *model) collect() *ps.ValueBlock {
	out := ps.NewValueBlock(m.dim)
	for _, k := range m.loaded {
		cur, base := m.cur[k], m.base[k]
		w, g2 := make([]float32, m.dim), make([]float32, m.dim)
		changed := cur.Freq != base.Freq
		for e := range w {
			w[e] = cur.Weights[e] - base.Weights[e]
			g2[e] = cur.G2Sum[e] - base.G2Sum[e]
			changed = changed || w[e] != 0 || g2[e] != 0
		}
		if changed {
			out.AppendRow(k, w, g2, cur.Freq-base.Freq)
		}
	}
	return out
}

// randomBlock is a working set of the given keys with random values.
func randomBlock(rng *rand.Rand, dim int, ks []keys.Key) *ps.ValueBlock {
	blk := ps.NewValueBlock(dim)
	for _, k := range ks {
		w, g2 := make([]float32, dim), make([]float32, dim)
		for e := range w {
			w[e], g2[e] = rng.Float32()-0.5, rng.Float32()
		}
		blk.AppendRow(k, w, g2, uint32(rng.Intn(5)))
	}
	return blk
}

// randomKeys returns n distinct sorted keys; with gpus > 1 and onlyGPU0 they
// all belong to GPU 0, leaving every other GPU's partition empty.
func randomKeys(rng *rand.Rand, n, gpus int, onlyGPU0 bool) []keys.Key {
	seen := map[keys.Key]bool{}
	var ks []keys.Key
	for len(ks) < n {
		k := keys.Key(rng.Uint64() >> 20)
		if seen[k] || (onlyGPU0 && k.HashShard(gpus) != 0) {
			continue
		}
		seen[k] = true
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

func sameBlocks(a, b *ps.ValueBlock) error {
	if !slices.Equal(a.Keys, b.Keys) {
		return fmt.Errorf("keys %v vs %v", a.Keys, b.Keys)
	}
	for i := range a.Keys {
		if a.Freq[i] != b.Freq[i] || a.Present[i] != b.Present[i] ||
			!slices.Equal(a.WeightsRow(i), b.WeightsRow(i)) || !slices.Equal(a.G2Row(i), b.G2Row(i)) {
			return fmt.Errorf("row %d (key %d) differs", i, a.Keys[i])
		}
	}
	return nil
}

// TestPerGPUPassesMatchSerialReference drives LoadBlock, CommitBlock,
// PushBlock and CollectBlock with 1, 2 and 4 GPUs over random working sets —
// including an empty one, blocks smaller than the GPU count and a block that
// leaves every GPU but the first without a partition — and checks every
// result bit for bit against the serial key-by-key model. The same HBMPS is
// reused across loads, so the recycled slabs and snapshot are covered.
func TestPerGPUPassesMatchSerialReference(t *testing.T) {
	const dim = 4 // testConfig's
	for _, gpus := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("gpus=%d", gpus), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(gpus)))
			h, err := New(testConfig(gpus))
			if err != nil {
				t.Fatal(err)
			}
			shapes := []struct {
				n        int
				onlyGPU0 bool
			}{{0, false}, {1, false}, {3, false}, {200, false}, {64, true}, {1500, false}, {2, false}}
			for _, sh := range shapes {
				blk := randomBlock(rng, dim, randomKeys(rng, sh.n, gpus, sh.onlyGPU0))
				if err := h.LoadBlock(blk); err != nil {
					t.Fatal(err)
				}
				m := newModel(blk)
				total := 0
				for g := range h.devices {
					own := 0
					for _, k := range blk.Keys {
						if h.gpuOf(k) == g {
							own++
						}
					}
					if got := h.residentOn(g); got != own {
						t.Fatalf("n=%d: gpu %d holds %d keys, owns %d", sh.n, g, got, own)
					}
					total += own
				}
				if total != sh.n {
					t.Fatalf("n=%d: GPUs hold %d keys", sh.n, total)
				}
				all := ps.NewValueBlock(dim)
				if err := h.PullInto(ps.PullRequest{Shard: 0, Keys: blk.Keys}, all); err != nil {
					t.Fatal(err)
				}
				if err := sameBlocks(all, blk); err != nil {
					t.Fatalf("n=%d: loaded working set: %v", sh.n, err)
				}

				// Workers commit random subsets: some rows trained, some only
				// counted, some untouched.
				for round := 0; round < 6 && sh.n > 0; round++ {
					var sub []keys.Key
					for _, k := range blk.Keys {
						if rng.Intn(3) == 0 {
							sub = append(sub, k)
						}
					}
					g := rng.Intn(gpus)
					orig, final := ps.NewValueBlock(dim), ps.NewValueBlock(dim)
					if err := h.PullInto(ps.PullRequest{Shard: g, Keys: sub}, orig); err != nil {
						t.Fatal(err)
					}
					final.CopyFrom(orig)
					for i := range sub {
						switch rng.Intn(3) {
						case 0:
							for e := range final.WeightsRow(i) {
								final.WeightsRow(i)[e] += rng.Float32() - 0.5
								final.G2Row(i)[e] += rng.Float32()
							}
							final.Freq[i]++
						case 1:
							final.Freq[i] += 2
						}
					}
					if err := h.CommitBlock(g, orig, final); err != nil {
						t.Fatal(err)
					}
					m.commit(orig, final)
				}
				got := ps.NewValueBlock(dim)
				h.CollectBlock(got)
				if err := sameBlocks(got, m.collect()); err != nil {
					t.Fatalf("n=%d: collected deltas: %v", sh.n, err)
				}
				h.Release()
			}
		})
	}
}

// TestConcurrentCommitsSum has N workers commit overlapping key sets at once,
// each adding its own contribution to every key it trains. The values are
// small integers, so the sum is exact in float32 in any order: every key must
// end at its loaded value plus the sum of the contributions of the workers
// that touched it.
func TestConcurrentCommitsSum(t *testing.T) {
	const dim, n, workers, rounds = 4, 400, 8, 20
	h, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	ks := make([]keys.Key, n)
	for i := range ks {
		ks[i] = keys.Key(i)
	}
	blk := ps.NewValueBlock(dim)
	for _, k := range ks {
		blk.AppendRow(k, []float32{float32(k), 0, 0, 0}, []float32{1, 1, 1, 1}, 0)
	}
	if err := h.LoadBlock(blk); err != nil {
		t.Fatal(err)
	}
	// Worker w trains every key divisible by w+1: key 0 by all of them.
	want := make([]float32, n)
	for w := 0; w < workers; w++ {
		for k := 0; k < n; k += w + 1 {
			want[k] += float32(rounds * (w + 1))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sub []keys.Key
			for k := 0; k < n; k += w + 1 {
				sub = append(sub, keys.Key(k))
			}
			orig, final := ps.NewValueBlock(dim), ps.NewValueBlock(dim)
			for r := 0; r < rounds; r++ {
				if err := h.PullInto(ps.PullRequest{Shard: w % 4, Keys: sub}, orig); err != nil {
					t.Error(err)
					return
				}
				final.CopyFrom(orig)
				for i := range sub {
					final.WeightsRow(i)[0] += float32(w + 1)
					final.G2Row(i)[1] += 1
					final.Freq[i]++
				}
				if err := h.CommitBlock(w%4, orig, final); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got := ps.NewValueBlock(dim)
	h.CollectBlock(got)
	for i, k := range got.Keys {
		touched := 0
		for w := 0; w < workers; w++ {
			if int(k)%(w+1) == 0 {
				touched++
			}
		}
		if got.WeightsRow(i)[0] != want[k] || got.G2Row(i)[1] != float32(rounds*touched) ||
			got.Freq[i] != uint32(rounds*touched) {
			t.Fatalf("key %d: delta w %v g2 %v freq %d, want %v / %d / %d", k,
				got.WeightsRow(i)[0], got.G2Row(i)[1], got.Freq[i], want[k], rounds*touched, rounds*touched)
		}
	}
	if got.Len() != n { // worker 0 trains every key
		t.Fatalf("collected %d changed keys, want %d", got.Len(), n)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestBatchedCallsDoNotAllocate pins the steady state: once warm, loading,
// pulling, committing, collecting and releasing a working set
// allocate nothing, whether the per-GPU passes run inline (1 GPU) or on the
// helper goroutines.
func TestBatchedCallsDoNotAllocate(t *testing.T) {
	const dim = 4
	for _, gpus := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("gpus=%d", gpus), func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			h, err := New(testConfig(gpus))
			if err != nil {
				t.Fatal(err)
			}
			blk := randomBlock(rng, dim, randomKeys(rng, 1024, gpus, false))
			sub := blk.Keys[:300]
			orig, final, deltas := ps.NewValueBlock(dim), ps.NewValueBlock(dim), ps.NewValueBlock(dim)
			cycle := func() {
				if err := h.LoadBlock(blk); err != nil {
					t.Fatal(err)
				}
				if err := h.PullInto(ps.PullRequest{Shard: gpus - 1, Keys: sub}, orig); err != nil {
					t.Fatal(err)
				}
				final.CopyFrom(orig)
				final.WeightsRow(0)[0]++
				if err := h.CommitBlock(gpus-1, orig, final); err != nil {
					t.Fatal(err)
				}
				h.CollectBlock(deltas)
				h.Release()
			}
			if raceEnabled {
				return
			}
			// A collection empties the pools the scratch lives in; start the
			// count after one, and after a cycle has refilled them.
			runtime.GC()
			cycle()
			if a := testing.AllocsPerRun(50, cycle); a != 0 {
				t.Fatalf("a steady-state batch cycle allocates %v times", a)
			}
		})
	}
}
