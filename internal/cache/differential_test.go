package cache

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

type kv struct {
	key   uint64
	value int
}

// collect returns what each hands out — a Range or a Flush — as a list.
func collect(each func(fn func(uint64, int))) []kv {
	var out []kv
	each(func(k uint64, v int) { out = append(out, kv{k, v}) })
	return out
}

// sameContents compares two Range/Flush listings: the first lruLen entries
// (the LRU level: pinned entries, then the eviction order) in order, the rest
// (the LFU level, whose order was map iteration in the model) as a set.
func sameContents(got, want []kv, lruLen int) bool {
	if len(got) != len(want) || !slices.Equal(got[:lruLen], want[:lruLen]) {
		return false
	}
	byKey := func(a, b kv) int { return cmp.Compare(a.key, b.key) }
	g, w := slices.Clone(got[lruLen:]), slices.Clone(want[lruLen:])
	slices.SortFunc(g, byKey)
	slices.SortFunc(w, byKey)
	return slices.Equal(g, w)
}

// TestCombinedMatchesModel drives seeded random operation sequences through
// Combined and through the three-structure reference it replaced
// (model_test.go) and demands the same policy: the same return values, the
// same eviction callbacks in the same order, the same statistics and the
// same contents level by level — with pins taken faster than they are
// released for a third of each sequence, so overflow happens under held pins.
func TestCombinedMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lruCap, lfuCap, steps := 1+rng.Intn(6), 1+rng.Intn(6), 1500
		if seed%3 == 0 { // the larger third: up to 64 entries a level
			lruCap, lfuCap, steps = 1+rng.Intn(64), 1+rng.Intn(64), 6000
		}
		keySpace := uint64((2 + rng.Intn(3)) * (lruCap + lfuCap)) // overflows both levels
		var evicted, modelEvicted []kv
		c := NewCombined[int](lruCap, lfuCap, func(k uint64, v int) { evicted = append(evicted, kv{k, v}) })
		m := newModelCombined[int](lruCap, lfuCap, func(k uint64, v int) { modelEvicted = append(modelEvicted, kv{k, v}) })
		for step := 0; step < steps; step++ {
			k := uint64(rng.Int63()) % keySpace
			// The middle third pins three times as often as it unpins; the
			// last third gives the pins back.
			ops := []int{0, 0, 0, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 8}
			switch {
			case step >= steps/3 && step < 2*steps/3:
				ops = append(ops, 4, 4)
			case step >= 2*steps/3:
				ops = append(ops, 5, 5, 5)
			}
			op := ops[rng.Intn(len(ops))]
			if rng.Intn(400) == 0 {
				op = 9
			}
			desc := fmt.Sprintf("seed %d (lru %d, lfu %d) step %d op %d key %d", seed, lruCap, lfuCap, step, op, k)
			check := func(name string, got, want any) {
				t.Helper()
				if got != want {
					t.Fatalf("%s: %s = %v, model %v", desc, name, got, want)
				}
			}
			switch op {
			case 0:
				c.Put(k, step)
				m.Put(k, step)
			case 1:
				v, ok := c.Get(k)
				mv, mok := m.Get(k)
				check("Get", kv{k, v}, kv{k, mv})
				check("Get ok", ok, mok)
			case 2:
				v, ok := c.GetApply(k)
				mv, mok := m.GetApply(k)
				check("GetApply", kv{k, v}, kv{k, mv})
				check("GetApply ok", ok, mok)
			case 3:
				check("Contains", c.Contains(k), m.Contains(k))
			case 4:
				check("Pin", c.Pin(k), m.Pin(k))
			case 5:
				check("Unpin", c.Unpin(k), m.Unpin(k))
			case 6:
				check("Pinned", c.Pinned(k), m.Pinned(k))
			case 7:
				v, ok := c.Remove(k)
				mv, mok := m.Remove(k)
				check("Remove", kv{k, v}, kv{k, mv})
				check("Remove ok", ok, mok)
			case 8:
				lruLen := m.lru.Len()
				got := collect(func(fn func(uint64, int)) {
					c.Range(func(k uint64, v int) bool { fn(k, v); return true })
				})
				want := collect(func(fn func(uint64, int)) {
					m.Range(func(k uint64, v int) bool { fn(k, v); return true })
				})
				if !sameContents(got, want, lruLen) {
					t.Fatalf("%s: Range %v, model %v (first %d ordered)", desc, got, want, lruLen)
				}
				// An early stop ends the walk at once.
				seen := 0
				c.Range(func(uint64, int) bool { seen++; return false })
				check("Range after false", seen, min(1, len(want)))
			case 9:
				lruLen := m.lru.Len()
				got := collect(func(fn func(uint64, int)) { c.Flush(fn) })
				want := collect(func(fn func(uint64, int)) { m.Flush(fn) })
				if !sameContents(got, want, lruLen) {
					t.Fatalf("%s: Flush %v, model %v (first %d ordered)", desc, got, want, lruLen)
				}
			}
			if !slices.Equal(evicted, modelEvicted) {
				t.Fatalf("%s: evictions %v, model %v", desc, evicted, modelEvicted)
			}
			check("Stats", c.Stats(), m.Stats())
			check("Len", c.Len(), m.Len())
			if m.lru.PinnedLen() < lruCap && c.Len() > lruCap+lfuCap {
				t.Fatalf("%s: len %d over capacity %d+%d with only %d pinned", desc, c.Len(), lruCap, lfuCap, m.lru.PinnedLen())
			}
		}
		if c.Stats().Evictions == 0 || c.Stats().LFUHits == 0 {
			t.Fatalf("seed %d never evicted or never hit the LFU: %+v", seed, c.Stats())
		}
	}
}

// TestLFUMatchesModel holds the LFU, which moved from container/heap onto the
// typed heap it now shares with Combined, against its previous
// implementation: same answers, same frequencies, same evictions in the same
// order over seeded random sequences.
func TestLFUMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(24)
		keySpace := uint64(capacity + 1 + rng.Intn(3*capacity))
		var evicted, modelEvicted []kv
		c := NewLFU[int](capacity, func(k uint64, v int) { evicted = append(evicted, kv{k, v}) })
		m := newModelLFU[int](capacity, func(k uint64, v int) { modelEvicted = append(modelEvicted, kv{k, v}) })
		for step := 0; step < 2000; step++ {
			k := uint64(rng.Int63()) % keySpace
			desc := fmt.Sprintf("seed %d (capacity %d) step %d key %d", seed, capacity, step, k)
			switch op := rng.Intn(8); op {
			case 0, 1:
				c.Put(k, step)
				m.Put(k, step)
			case 2:
				freq := int64(rng.Intn(6) - 1) // 0 and -1 count as 1
				c.PutWithFreq(k, step, freq)
				m.PutWithFreq(k, step, freq)
			case 3, 4, 5:
				v, ok := c.Get(k)
				if mv, mok := m.Get(k); v != mv || ok != mok {
					t.Fatalf("%s: Get = %d,%v, model %d,%v", desc, v, ok, mv, mok)
				}
			case 6:
				v, ok := c.Peek(k)
				if mv, mok := m.Peek(k); v != mv || ok != mok || c.Contains(k) != ok {
					t.Fatalf("%s: Peek = %d,%v, model %d,%v", desc, v, ok, mv, mok)
				}
			case 7:
				v, ok := c.Remove(k)
				if mv, mok := m.Remove(k); v != mv || ok != mok {
					t.Fatalf("%s: Remove = %d,%v, model %d,%v", desc, v, ok, mv, mok)
				}
			}
			if !slices.Equal(evicted, modelEvicted) {
				t.Fatalf("%s: evictions %v, model %v", desc, evicted, modelEvicted)
			}
			if c.Len() != m.Len() || c.Freq(k) != m.Freq(k) || c.Len() > capacity {
				t.Fatalf("%s: len %d freq %d, model len %d freq %d", desc, c.Len(), c.Freq(k), m.Len(), m.Freq(k))
			}
		}
		if len(evicted) == 0 {
			t.Fatalf("seed %d never evicted", seed)
		}
	}
}

// TestCombinedPutRestartsVisitCount pins down the rule the model test keeps
// implicitly: a Get that hits the LFU carries the entry's frequency back into
// the LRU, a Put on an LFU-resident key restarts it at 1.
func TestCombinedPutRestartsVisitCount(t *testing.T) {
	for _, viaPut := range []bool{false, true} {
		var evicted []uint64
		c := NewCombined[int](1, 2, func(k uint64, _ int) { evicted = append(evicted, k) })
		c.Put(1, 1)
		c.Get(1)
		c.Get(1)    // three visits
		c.Put(2, 2) // 1 demoted with frequency 3
		c.Get(2)    // 2 has two visits
		if viaPut {
			c.Put(1, 1) // back into the LRU at one visit; 2 demoted
		} else {
			c.Get(1) // back into the LRU at four visits; 2 demoted
		}
		c.Put(3, 3)       // 1 demoted again
		c.Put(4, 4)       // 3 demoted: the LFU overflows and evicts its minimum
		want := uint64(3) // one visit, below 2's two and 1's four
		if viaPut {
			want = 1 // one visit like 3, but demoted earlier
		}
		if !slices.Equal(evicted, []uint64{want}) {
			t.Fatalf("viaPut=%v: evicted %v, want [%d]", viaPut, evicted, want)
		}
	}
}

func TestCombinedHotOperationsDoNotAllocate(t *testing.T) {
	c := NewCombined[int](8, 8, nil)
	for k := uint64(0); k < 16; k++ {
		c.Put(k, int(k)) // 0..7 end up in the LFU, 8..15 in the LRU
	}
	k := uint64(8)
	allocs := testing.AllocsPerRun(200, func() {
		k = 8 + (k+3)%8
		c.Get(k)
		c.GetApply(k)
		c.GetApply(k - 8) // LFU-resident: served in place
		c.Pin(k)
		c.Pin(k)
		c.Get(k) // pinned: off the eviction order
		c.Put(k, 1)
		c.Unpin(k)
		c.Unpin(k)
		c.Put(k, 2)
	})
	if allocs != 0 {
		t.Fatalf("Get/GetApply/Pin/Unpin/Put of an existing key allocated %.1f times per run", allocs)
	}
	// Moving between the levels relinks the entry: no allocation either.
	k = 0
	allocs = testing.AllocsPerRun(200, func() {
		k = (k + 1) % 16
		c.Get(k)
	})
	if allocs != 0 {
		t.Fatalf("promotion + demotion allocated %.1f times per Get", allocs)
	}
}

// BenchmarkLRUPutUnderPins inserts new keys into a full cache whose LRU level
// (capacity 512) holds a pinned working set far larger than its capacity —
// the MEM-PS during a cold batch. ns/op must not depend on the pinned count.
// Each insert demotes the previous one and, the LFU being full, evicts an
// entry; the name predates the single-structure Combined.
func BenchmarkLRUPutUnderPins(b *testing.B) {
	for _, pinned := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("pinned=%dk", pinned>>10), func(b *testing.B) {
			c := NewCombined[int](512, 512, nil)
			for k := 0; k < pinned; k++ {
				c.Put(uint64(k), k)
				c.Pin(uint64(k))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Put(uint64(pinned+i), i)
			}
		})
	}
}

// BenchmarkCombinedMissCycle is the MEM-PS's cache traffic on the cold
// workload, per key: a 750+750-entry cache, batches of 1,800 keys drawn from
// 30,000 that are looked up (most miss), inserted and pinned as by PrepareInto,
// read again as by the push's apply, then unpinned as by CompleteBatch —
// which is when the overflow the pins held back is demoted and evicted.
func BenchmarkCombinedMissCycle(b *testing.B) {
	const batch, universe = 1800, 30000
	evicted := 0
	c := NewCombined[int](750, 750, func(uint64, int) { evicted++ })
	rng := rand.New(rand.NewSource(1))
	ks := make([]uint64, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		for i := range ks {
			ks[i] = uint64(rng.Intn(universe))
		}
		for _, k := range ks {
			if _, ok := c.Get(k); !ok {
				c.Put(k, int(k))
			}
			c.Pin(k)
		}
		for _, k := range ks {
			c.GetApply(k)
		}
		for _, k := range ks {
			c.Unpin(k)
		}
	}
	if b.N > 10*batch && evicted == 0 {
		b.Fatal("nothing was evicted")
	}
}
