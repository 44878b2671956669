package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestLRUBasic(t *testing.T) {
	c := NewLRU[int](2, nil)
	c.Put(1, 10)
	c.Put(2, 20)
	if v, ok := c.Get(1); !ok || v != 10 {
		t.Fatal("Get(1) failed")
	}
	c.Put(3, 30) // evicts 2 (least recently used, since 1 was just touched)
	if c.Contains(2) {
		t.Fatal("2 should have been evicted")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Fatal("1 and 3 should remain")
	}
	if c.Len() != 2 || c.Capacity() != 2 {
		t.Fatal("len/capacity wrong")
	}
}

func TestLRUEvictCallback(t *testing.T) {
	var evicted []uint64
	c := NewLRU[int](1, func(k uint64, v int) { evicted = append(evicted, k) })
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Fatalf("evicted = %v", evicted)
	}
	// Remove must not fire the callback.
	c.Remove(3)
	if len(evicted) != 2 {
		t.Fatal("Remove must not invoke the eviction callback")
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := NewLRU[int](2, nil)
	c.Put(1, 1)
	c.Put(1, 100)
	if c.Len() != 1 {
		t.Fatal("updating a key must not grow the cache")
	}
	if v, _ := c.Get(1); v != 100 {
		t.Fatal("update lost")
	}
}

func TestLRUPeekDoesNotPromote(t *testing.T) {
	c := NewLRU[int](2, nil)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Peek(1) // does not promote
	c.Put(3, 3)
	if c.Contains(1) {
		t.Fatal("Peek must not refresh recency; 1 should be evicted")
	}
}

func TestLRUPinPreventsEviction(t *testing.T) {
	var evicted []uint64
	c := NewLRU[int](2, func(k uint64, v int) { evicted = append(evicted, k) })
	c.Put(1, 1)
	c.Put(2, 2)
	if !c.Pin(1) || !c.Pin(2) {
		t.Fatal("Pin should succeed for present keys")
	}
	if c.Pin(99) {
		t.Fatal("Pin of absent key should fail")
	}
	c.Put(3, 3) // over capacity but 1 and 2 are pinned, 3 is newest
	if c.Len() != 3 {
		t.Fatalf("pinned cache should overflow, len = %d", c.Len())
	}
	if c.PinnedLen() != 2 {
		t.Fatalf("pinned = %d", c.PinnedLen())
	}
	// Unpinning shrinks back to capacity. The unpinned entry was in use until
	// now, so it re-enters the eviction order as the most recently used and
	// the victim is the older unpinned entry, 3.
	c.Unpin(1)
	if c.Len() != 2 {
		t.Fatalf("after unpin len = %d", c.Len())
	}
	if len(evicted) != 1 || evicted[0] != 3 {
		t.Fatalf("evicted = %v", evicted)
	}
	if c.Unpin(42) {
		t.Fatal("Unpin of absent key should report false")
	}
	// Pins nest: each Pin needs a matching Unpin before the key becomes
	// evictable (overlapping pipelined batches pin shared parameters).
	c.Pin(2) // second pin on top of the original
	if c.PinnedLen() != 1 {
		t.Fatal("nested pin should not change the pinned entry count")
	}
	c.Unpin(2)
	if c.PinnedLen() != 1 || !c.Pinned(2) {
		t.Fatal("one unpin of a doubly-pinned key must keep it pinned")
	}
	c.Unpin(2)
	if c.PinnedLen() != 0 || c.Pinned(2) {
		t.Fatal("matching unpins should release the pin")
	}
	c.Unpin(2)
	if c.PinnedLen() != 0 {
		t.Fatal("extra unpin should not go negative")
	}
}

func TestLRUKeysOrder(t *testing.T) {
	c := NewLRU[int](3, nil)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	c.Get(1)
	ks := c.Keys()
	if ks[0] != 1 || ks[1] != 3 || ks[2] != 2 {
		t.Fatalf("Keys order = %v", ks)
	}
}

func TestLRUNeverExceedsCapacityWithoutPins(t *testing.T) {
	f := func(ops []uint64) bool {
		c := NewLRU[uint64](8, nil)
		for _, op := range ops {
			c.Put(op%64, op)
			if c.Len() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLFUBasic(t *testing.T) {
	c := NewLFU[int](2, nil)
	c.Put(1, 10)
	c.Put(2, 20)
	c.Get(1)
	c.Get(1) // freq(1)=3, freq(2)=1
	c.Put(3, 30)
	if c.Contains(2) {
		t.Fatal("least frequently used (2) should be evicted")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Fatal("1 and 3 should remain")
	}
	if c.Freq(1) != 3 {
		t.Fatalf("freq(1) = %d", c.Freq(1))
	}
	if c.Freq(42) != 0 {
		t.Fatal("absent freq should be 0")
	}
}

func TestLFUEvictCallbackAndTieBreak(t *testing.T) {
	var evicted []uint64
	c := NewLFU[int](2, func(k uint64, v int) { evicted = append(evicted, k) })
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3) // all freq 1; oldest (1) evicted first
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted = %v", evicted)
	}
}

func TestLFUPutWithFreq(t *testing.T) {
	c := NewLFU[int](2, nil)
	c.PutWithFreq(1, 1, 10)
	c.Put(2, 2)
	c.Put(3, 3) // 2 has freq 1, should be evicted before 1
	if !c.Contains(1) {
		t.Fatal("high-frequency entry should survive")
	}
	if c.Contains(2) {
		t.Fatal("low-frequency entry should be evicted")
	}
	// Updating an existing key accumulates frequency.
	c.PutWithFreq(1, 5, 5)
	if c.Freq(1) != 15 {
		t.Fatalf("freq = %d", c.Freq(1))
	}
	// Non-positive frequency clamps to 1.
	c.PutWithFreq(9, 9, -3)
	if c.Freq(9) != 1 {
		t.Fatalf("freq = %d", c.Freq(9))
	}
}

func TestLFUCapacityInvariant(t *testing.T) {
	f := func(ops []uint64) bool {
		c := NewLFU[uint64](8, nil)
		for _, op := range ops {
			if op%3 == 0 {
				c.Get(op % 32)
			} else {
				c.Put(op%32, op)
			}
			if c.Len() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCombinedDemotionAndPromotion(t *testing.T) {
	var fullyEvicted []uint64
	c := NewCombined[int](2, 2, func(k uint64, v int) { fullyEvicted = append(fullyEvicted, k) })
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3) // 1 demoted to LFU
	if c.Len() != 3 {
		t.Fatalf("combined len = %d", c.Len())
	}
	if c.Stats().Demotions != 1 {
		t.Fatalf("demotions = %d", c.Stats().Demotions)
	}
	// 1 is still findable (served by the LFU) and is promoted back.
	if v, ok := c.Get(1); !ok || v != 1 {
		t.Fatal("demoted entry must still hit")
	}
	if c.Stats().LFUHits != 1 {
		t.Fatalf("lfu hits = %d", c.Stats().LFUHits)
	}
	if len(fullyEvicted) != 0 {
		t.Fatal("nothing should be fully evicted yet")
	}
	// Drive enough inserts to overflow both levels and trigger full eviction.
	for k := uint64(10); k < 20; k++ {
		c.Put(k, int(k))
	}
	if len(fullyEvicted) == 0 {
		t.Fatal("expected full evictions after overflowing both levels")
	}
	if c.Stats().Evictions != int64(len(fullyEvicted)) {
		t.Fatal("eviction counter mismatch")
	}
}

func TestCombinedHitRate(t *testing.T) {
	c := NewCombined[int](4, 4, nil)
	c.Put(1, 1)
	c.Get(1)
	c.Get(2)
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if hitRate(s) != 0.5 {
		t.Fatalf("hit rate = %v", hitRate(s))
	}
	var zero Stats
	if hitRate(zero) != 0 {
		t.Fatal("empty hit rate should be 0")
	}
}

func TestCombinedFrequencyCarriedOnDemotion(t *testing.T) {
	c := NewCombined[int](1, 4, nil)
	c.Put(1, 1)
	c.Get(1)
	c.Get(1) // key 1 visited 3 times while in LRU
	c.Put(2, 2)
	c.Put(3, 3)
	c.Put(4, 4)
	c.Put(5, 5) // 1,2,3,4 demoted over time
	// Key 1's high frequency should protect it in the LFU when it overflows.
	if !c.Contains(1) {
		t.Fatal("frequent key should survive in the LFU")
	}
}

func TestCombinedPinning(t *testing.T) {
	c := NewCombined[int](2, 2, nil)
	c.Put(1, 1)
	if !c.Pin(1) {
		t.Fatal("pin should succeed")
	}
	if c.Pin(99) {
		t.Fatal("pin of absent key should fail")
	}
	c.Put(2, 2)
	c.Put(3, 3)
	c.Put(4, 4)
	// 1 is pinned: it must still be in the LRU (not demoted, not evicted).
	if v, ok := c.Get(1); !ok || v != 1 {
		t.Fatal("pinned key must remain")
	}
	c.Unpin(1)
}

func TestCombinedRemoveAndFlush(t *testing.T) {
	c := NewCombined[int](2, 2, nil)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	if _, ok := c.Remove(1); !ok {
		t.Fatal("Remove should find demoted entry")
	}
	if c.Contains(1) {
		t.Fatal("removed key should be gone")
	}
	var flushed []uint64
	c.Flush(func(k uint64, v int) { flushed = append(flushed, k) })
	if len(flushed) != 2 {
		t.Fatalf("flushed = %v", flushed)
	}
	if c.Len() != 0 {
		t.Fatal("cache should be empty after flush")
	}
	// Still usable after flush.
	c.Put(9, 9)
	if !c.Contains(9) {
		t.Fatal("cache unusable after flush")
	}
}

func TestCombinedPutOnLFUResidentKey(t *testing.T) {
	c := NewCombined[int](1, 4, nil)
	c.Put(1, 1)
	c.Put(2, 2) // 1 demoted
	c.Put(1, 100)
	if c.Len() != 2 {
		t.Fatalf("len = %d; key 1 must not be duplicated across levels", c.Len())
	}
	if v, _ := c.Get(1); v != 100 {
		t.Fatal("Put must update the value")
	}
}

func TestCombinedSkewedWorkloadHitRateExceedsUniform(t *testing.T) {
	// With a skewed (hot-set) workload, the combined cache's hit rate should
	// exceed the same cache under a uniform workload — the property that
	// makes Fig 4(c)'s 46% plateau possible.
	run := func(skewed bool) float64 {
		c := NewCombined[int](256, 256, nil)
		rng := rand.New(rand.NewSource(1))
		zipf := rand.NewZipf(rng, 1.3, 1, 1<<16)
		for i := 0; i < 20000; i++ {
			var k uint64
			if skewed {
				k = zipf.Uint64()
			} else {
				k = rng.Uint64() % (1 << 16)
			}
			if _, ok := c.Get(k); !ok {
				c.Put(k, int(k))
			}
		}
		return hitRate(c.Stats())
	}
	skewedRate := run(true)
	uniformRate := run(false)
	if skewedRate <= uniformRate {
		t.Fatalf("skewed hit rate %v should exceed uniform %v", skewedRate, uniformRate)
	}
	if skewedRate < 0.3 {
		t.Fatalf("skewed hit rate %v unexpectedly low", skewedRate)
	}
}

func TestCombinedTotalEntriesInvariant(t *testing.T) {
	f := func(ops []uint64) bool {
		c := NewCombined[uint64](4, 4, nil)
		for _, op := range ops {
			k := op % 32
			switch op % 3 {
			case 0:
				c.Put(k, op)
			case 1:
				c.Get(k)
			case 2:
				c.Remove(k)
			}
			// Unpinned combined cache can never exceed the two capacities.
			if c.Len() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCombinedRefs checks the probe-free pin path against the keyed one:
// GetPin and PutPin leave the cache as Get+Pin and Put+Pin do, a Ref applies
// and unpins its entry like GetApply and Unpin, and a Ref stops holding once
// its entry leaves the cache.
func TestCombinedRefs(t *testing.T) {
	var viaRefs, viaKeys []uint64
	refs := NewCombined[int](2, 2, func(k uint64, _ int) { viaRefs = append(viaRefs, k) })
	keyed := NewCombined[int](2, 2, func(k uint64, _ int) { viaKeys = append(viaKeys, k) })
	for k := uint64(0); k < 6; k++ { // key 0 too: the table keeps it beside its array
		refs.Put(k, int(k))
		keyed.Put(k, int(k))
	}
	batch := []uint64{0, 3, 5, 9, 11}
	held := make([]Ref[int], len(batch))
	for i, k := range batch {
		v, r, ok := refs.GetPin(k)
		if kv, kok := keyed.Get(k); kok != ok || kv != v {
			t.Fatalf("GetPin(%d) = %d, %v; Get = %d, %v", k, v, ok, kv, kok)
		}
		if !ok {
			r = refs.PutPin(k, int(k))
			keyed.Put(k, int(k))
		}
		keyed.Pin(k)
		held[i] = r
	}
	for i, k := range batch {
		if !refs.Holds(held[i], k) || refs.Holds(held[i], k+1) {
			t.Fatalf("the Ref of pinned key %d does not hold it, or holds key %d", k, k+1)
		}
		if v, _ := keyed.GetApply(k); refs.ApplyRef(held[i]) != v {
			t.Fatalf("ApplyRef(%d) differs from GetApply", k)
		}
	}
	for i, k := range batch {
		refs.UnpinRef(held[i])
		keyed.Unpin(k)
	}
	if !slices.Equal(viaRefs, viaKeys) || refs.Stats() != keyed.Stats() || refs.Len() != keyed.Len() {
		t.Fatalf("refs evicted %v (%+v), keys %v (%+v)", viaRefs, refs.Stats(), viaKeys, keyed.Stats())
	}
	_, r, _ := refs.GetPin(batch[0])
	refs.Flush(nil)
	if refs.Holds(r, batch[0]) {
		t.Fatal("a Ref holds its entry after Flush")
	}
	refs.Put(7, 7)
	r = refs.PutPin(8, 8)
	refs.Remove(8)
	if refs.Holds(r, 8) {
		t.Fatal("a Ref holds its entry after Remove")
	}
}
