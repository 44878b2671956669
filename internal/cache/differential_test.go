package cache

import (
	"cmp"
	"fmt"
	"maps"
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

// lfuOrder lists a model LFU's contents in the order the frequency order
// under test must evict them: fewest visits first, the earliest entered among
// equals.
func lfuOrder(m *modelLFU[int]) []kv {
	es := slices.Collect(maps.Values(m.items))
	slices.SortFunc(es, func(a, b *lfuEntry[int]) int {
		return cmp.Or(cmp.Compare(a.freq, b.freq), cmp.Compare(a.seq, b.seq))
	})
	out := make([]kv, len(es))
	for i, e := range es {
		out[i] = kv{e.key, e.value}
	}
	return out
}

// modelOrder lists a model Combined's contents in the order Range and Flush
// must hand them out: the LRU level (pinned entries, then the eviction
// order), then the LFU level in eviction order.
func modelOrder(m *modelCombined[int]) []kv {
	out := collect(func(fn func(uint64, int)) {
		m.lru.Range(func(k uint64, v int) bool { fn(k, v); return true })
	})
	return append(out, lfuOrder(m.lfu)...)
}

// visitRegimes are the kinds of visit count a frequency order holds apart:
// within the first bitmap word, in a higher bucket, at the top bucket, and
// past the buckets in the heap.
var visitRegimes = [...]string{"below 64", "64 to the top bucket", "the top bucket", "past the buckets"}

func visitRegime(visits int64) int {
	switch {
	case visits < 64:
		return 0
	case visits < freqBuckets-1:
		return 1
	case visits == freqBuckets-1:
		return 2
	}
	return 3
}

// visitBursts are the numbers of Gets the model tests give one key in a row
// to carry its count into every regime, straddling each boundary.
var visitBursts = [...]int{62, 63, 64, freqBuckets - 3, freqBuckets - 2, freqBuckets - 1, freqBuckets, 2 * freqBuckets}

// TestCombinedMatchesModel drives seeded random operation sequences through
// Combined and through the three-structure reference it replaced
// (model_test.go) and demands the same policy: the same return values, the
// same eviction callbacks in the same order, the same statistics and the
// same contents in the same order — with pins taken faster than they are
// released for a third of each sequence, so overflow happens under held pins.
// Now and then one key takes a burst of Gets, so the LFU level holds visit
// counts of every regime of its frequency order.
func TestCombinedMatchesModel(t *testing.T) {
	var regimes [len(visitRegimes)]int
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
			switch rng.Intn(400) {
			case 0:
				op = 9
			case 1, 2, 3, 4:
				op = 10
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
				got := collect(func(fn func(uint64, int)) {
					c.Range(func(k uint64, v int) bool { fn(k, v); return true })
				})
				if want := modelOrder(m); !slices.Equal(got, want) {
					t.Fatalf("%s: Range %v, model %v", desc, got, want)
				}
				// An early stop ends the walk at once.
				seen := 0
				c.Range(func(uint64, int) bool { seen++; return false })
				check("Range after false", seen, min(1, c.Len()))
				for _, e := range m.lfu.items {
					regimes[visitRegime(e.freq)]++
				}
			case 9:
				want := modelOrder(m)
				got := collect(func(fn func(uint64, int)) { c.Flush(fn) })
				m.Flush(nil)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: Flush %v, model %v", desc, got, want)
				}
			case 10:
				if !m.Contains(k) {
					c.Put(k, step)
					m.Put(k, step)
				}
				for range visitBursts[rng.Intn(len(visitBursts))] {
					c.Get(k)
					m.Get(k)
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
	for r, n := range regimes {
		if n == 0 {
			t.Errorf("no Range met an LFU-level entry with %s visits", visitRegimes[r])
		}
	}
}

// TestLFUMatchesModel holds the LFU, which moved from container/heap onto the
// frequency order it shares with Combined, against its container/heap
// implementation: same answers, same frequencies, same evictions in the same
// order over seeded random sequences, and a Range in eviction order. The
// frequencies PutWithFreq adds and the Get bursts carry keys below, at and
// past the top bucket, and Gets move keys past newer ones of their count
// (which the order keeps in its heap).
func TestLFUMatchesModel(t *testing.T) {
	var regimes [len(visitRegimes)]int
	outOfOrder := 0
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
			switch op := rng.Intn(10); op {
			case 0, 1:
				c.Put(k, step)
				m.Put(k, step)
			case 2:
				freq := int64(rng.Intn(6) - 1) // 0 and -1 count as 1
				switch rng.Intn(4) {
				case 0:
					freq += freqBuckets - 4
				case 1:
					freq += 1 << 40
				}
				c.PutWithFreq(k, step, freq)
				m.PutWithFreq(k, step, freq)
			case 8:
				got := collect(func(fn func(uint64, int)) {
					c.Range(func(k uint64, v int) bool { fn(k, v); return true })
				})
				if want := lfuOrder(m); !slices.Equal(got, want) {
					t.Fatalf("%s: Range %v, model %v", desc, got, want)
				}
				for _, e := range m.items {
					regimes[visitRegime(e.freq)]++
				}
				for _, e := range c.order.heap {
					if e.visits < freqBuckets {
						outOfOrder++
					}
				}
			case 9:
				if rng.Intn(8) != 0 {
					break
				}
				for range visitBursts[rng.Intn(len(visitBursts))] {
					v, ok := c.Get(k)
					if mv, mok := m.Get(k); v != mv || ok != mok {
						t.Fatalf("%s: Get = %d,%v, model %d,%v", desc, v, ok, mv, mok)
					}
				}
			case 3, 4, 5:
				v, ok := c.Get(k)
				if mv, mok := m.Get(k); v != mv || ok != mok {
					t.Fatalf("%s: Get = %d,%v, model %d,%v", desc, v, ok, mv, mok)
				}
			case 6, 7:
				if c.Contains(k) != m.Contains(k) {
					t.Fatalf("%s: Contains = %v, model %v", desc, c.Contains(k), m.Contains(k))
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
	for r, n := range regimes {
		if n == 0 {
			t.Errorf("no Range met an entry with %s visits", visitRegimes[r])
		}
	}
	if outOfOrder == 0 {
		t.Error("no entry ever moved past a newer one of its count")
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
