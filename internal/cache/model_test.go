package cache

import "container/heap"

// This file holds the reference model of the combined policy: the LRU and
// LFU types and the Combined that composed them, as they were before
// Combined became one structure. Nothing outside the tests uses them.

// lruEntry is a node of one of the LRU's two intrusive circular lists.
type lruEntry[V any] struct {
	prev, next *lruEntry[V]
	key        uint64
	value      V
	// pins counts outstanding Pin calls: overlapping pipelined batches may
	// pin the same working parameter, and it stays unevictable until every
	// batch has unpinned it.
	pins int
}

func (e *lruEntry[V]) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// pushFront links e right behind the sentinel root.
func (e *lruEntry[V]) pushFront(root *lruEntry[V]) {
	e.prev, e.next = root, root.next
	root.next.prev = e
	root.next = e
}

// LRU is a least-recently-used cache keyed by uint64. It is not safe for
// concurrent use; the MEM-PS serializes access behind its own lock.
//
// A pinned entry is a working parameter of an in-flight batch: it is "in use"
// until its batch completes, not merely recently used. The first Pin therefore
// takes the entry off the eviction order altogether and the last Unpin puts
// it back at the most-recently-used end, so the eviction victim is always the
// tail of the order and every operation is O(1) however many entries are
// pinned.
type LRU[V any] struct {
	capacity int
	onEvict  EvictFunc[V]
	items    map[uint64]*lruEntry[V]
	// order is the sentinel of the eviction order (unpinned entries, most
	// recently used first); held is the sentinel of the pinned entries, most
	// recently pinned first. Every entry is on exactly one of the two.
	order, held lruEntry[V]
	pinned      int
}

// NewLRU creates an LRU cache holding at most capacity entries. onEvict may
// be nil. A capacity <= 0 is treated as 1.
func NewLRU[V any](capacity int, onEvict EvictFunc[V]) *LRU[V] {
	if capacity <= 0 {
		capacity = 1
	}
	c := &LRU[V]{capacity: capacity, onEvict: onEvict, items: make(map[uint64]*lruEntry[V])}
	c.order.prev, c.order.next = &c.order, &c.order
	c.held.prev, c.held.next = &c.held, &c.held
	return c
}

// Len returns the number of cached entries, pinned ones included.
func (c *LRU[V]) Len() int { return len(c.items) }

// Capacity returns the configured capacity.
func (c *LRU[V]) Capacity() int { return c.capacity }

// PinnedLen returns the number of pinned entries.
func (c *LRU[V]) PinnedLen() int { return c.pinned }

// touch marks an unpinned entry most recently used.
func (c *LRU[V]) touch(e *lruEntry[V]) {
	if e.pins == 0 && c.order.next != e {
		e.unlink()
		e.pushFront(&c.order)
	}
}

// Get returns the value for key and marks it most recently used.
func (c *LRU[V]) Get(key uint64) (value V, ok bool) {
	if e, ok := c.items[key]; ok {
		c.touch(e)
		return e.value, true
	}
	return value, false
}

// Peek returns the value without updating recency.
func (c *LRU[V]) Peek(key uint64) (value V, ok bool) {
	if e, ok := c.items[key]; ok {
		return e.value, true
	}
	return value, false
}

// Contains reports whether key is cached, without updating recency.
func (c *LRU[V]) Contains(key uint64) bool {
	_, ok := c.items[key]
	return ok
}

// Put inserts or updates key and marks it most recently used. If the cache
// exceeds its capacity, the least recently used unpinned entry is evicted.
// Pinned entries are never evicted, so the cache may temporarily exceed its
// capacity while many entries are pinned.
func (c *LRU[V]) Put(key uint64, value V) {
	if e, ok := c.items[key]; ok {
		e.value = value
		c.touch(e)
		return
	}
	e := &lruEntry[V]{key: key, value: value}
	c.items[key] = e
	e.pushFront(&c.order)
	c.evictOverflow()
}

// evictOverflow evicts from the tail of the eviction order while over
// capacity, but never the order's most recently used entry: a freshly
// inserted (or just unpinned) entry must not be the victim of its own arrival
// when everything older is pinned — the cache overflows instead.
func (c *LRU[V]) evictOverflow() {
	for len(c.items) > c.capacity {
		victim := c.order.prev
		if victim == c.order.next {
			return // zero or one unpinned entries
		}
		c.remove(victim)
		if c.onEvict != nil {
			c.onEvict(victim.key, victim.value)
		}
	}
}

func (c *LRU[V]) remove(e *lruEntry[V]) {
	e.unlink()
	delete(c.items, e.key)
	if e.pins > 0 {
		c.pinned--
	}
}

// Remove deletes key, pinned or not, without invoking the eviction callback.
// It returns the removed value, if any.
func (c *LRU[V]) Remove(key uint64) (value V, ok bool) {
	if e, ok := c.items[key]; ok {
		c.remove(e)
		return e.value, true
	}
	return value, false
}

// Pin marks key as unevictable until a matching Unpin. Pins nest: a key
// pinned by several in-flight batches stays pinned until all of them unpin
// it. It reports whether the key was present.
func (c *LRU[V]) Pin(key uint64) bool {
	e, ok := c.items[key]
	if !ok {
		return false
	}
	if e.pins == 0 {
		e.unlink()
		e.pushFront(&c.held)
		c.pinned++
	}
	e.pins++
	return true
}

// Pinned reports whether key is present and currently pinned.
func (c *LRU[V]) Pinned(key uint64) bool {
	e, ok := c.items[key]
	return ok && e.pins > 0
}

// Unpin releases one pin on key. Once no pins remain the entry re-enters the
// eviction order as the most recently used one, and overflow the pins were
// holding back is evicted. It reports whether the key was present.
func (c *LRU[V]) Unpin(key uint64) bool {
	e, ok := c.items[key]
	if !ok {
		return false
	}
	if e.pins > 0 {
		e.pins--
		if e.pins == 0 {
			c.pinned--
			e.unlink()
			e.pushFront(&c.order)
			c.evictOverflow()
		}
	}
	return true
}

// Keys returns the cached keys: the pinned ones (most recently pinned first),
// then the unpinned ones from most to least recently used.
func (c *LRU[V]) Keys() []uint64 {
	out := make([]uint64, 0, len(c.items))
	c.Range(func(key uint64, _ V) bool {
		out = append(out, key)
		return true
	})
	return out
}

// Range calls fn for every cached entry, in Keys order, until fn returns
// false.
func (c *LRU[V]) Range(fn func(key uint64, value V) bool) {
	for _, root := range [...]*lruEntry[V]{&c.held, &c.order} {
		for e := root.next; e != root; e = e.next {
			if !fn(e.key, e.value) {
				return
			}
		}
	}
}

type lfuEntry[V any] struct {
	key   uint64
	value V
	freq  int64
	seq   int64 // tie-break: older entries evict first
	index int   // heap index
}

type lfuHeap[V any] []*lfuEntry[V]

func (h lfuHeap[V]) Len() int { return len(h) }
func (h lfuHeap[V]) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].seq < h[j].seq
}
func (h lfuHeap[V]) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *lfuHeap[V]) Push(x any) {
	e := x.(*lfuEntry[V])
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *lfuHeap[V]) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// modelLFU is the container/heap LFU the reference Combined was built on,
// kept beside it so the reference shares no code with the typed heap under
// test. Its original documentation follows.
//
// LFU is a least-frequently-used cache keyed by uint64, with FIFO tie
// breaking among equally frequent entries. It is not safe for concurrent use.
type modelLFU[V any] struct {
	capacity int
	onEvict  EvictFunc[V]
	items    map[uint64]*lfuEntry[V]
	heap     lfuHeap[V]
	seq      int64
}

// newModelLFU creates an LFU cache holding at most capacity entries. onEvict may
// be nil. A capacity <= 0 is treated as 1.
func newModelLFU[V any](capacity int, onEvict EvictFunc[V]) *modelLFU[V] {
	if capacity <= 0 {
		capacity = 1
	}
	return &modelLFU[V]{
		capacity: capacity,
		onEvict:  onEvict,
		items:    make(map[uint64]*lfuEntry[V]),
	}
}

// Len returns the number of cached entries.
func (c *modelLFU[V]) Len() int { return len(c.items) }

// Capacity returns the configured capacity.
func (c *modelLFU[V]) Capacity() int { return c.capacity }

// Get returns the value for key and increments its frequency.
func (c *modelLFU[V]) Get(key uint64) (V, bool) {
	if e, ok := c.items[key]; ok {
		e.freq++
		heap.Fix(&c.heap, e.index)
		return e.value, true
	}
	var zero V
	return zero, false
}

// Peek returns the value for key without touching its frequency.
func (c *modelLFU[V]) Peek(key uint64) (V, bool) {
	if e, ok := c.items[key]; ok {
		return e.value, true
	}
	var zero V
	return zero, false
}

// Contains reports whether key is cached without touching its frequency.
func (c *modelLFU[V]) Contains(key uint64) bool {
	_, ok := c.items[key]
	return ok
}

// Put inserts or updates key. New entries start with the given initial
// frequency of 1; use PutWithFreq to preserve a frequency carried over from
// another cache level. If the cache overflows, the least frequently used
// entry is evicted.
func (c *modelLFU[V]) Put(key uint64, value V) {
	c.PutWithFreq(key, value, 1)
}

// PutWithFreq inserts or updates key with an explicit frequency. The combined
// policy uses this to demote LRU entries without losing their access counts.
func (c *modelLFU[V]) PutWithFreq(key uint64, value V, freq int64) {
	if freq < 1 {
		freq = 1
	}
	if e, ok := c.items[key]; ok {
		e.value = value
		e.freq += freq
		heap.Fix(&c.heap, e.index)
		return
	}
	c.seq++
	e := &lfuEntry[V]{key: key, value: value, freq: freq, seq: c.seq}
	c.items[key] = e
	heap.Push(&c.heap, e)
	for len(c.items) > c.capacity {
		victim := heap.Pop(&c.heap).(*lfuEntry[V])
		delete(c.items, victim.key)
		if c.onEvict != nil {
			c.onEvict(victim.key, victim.value)
		}
	}
}

// Remove deletes key without invoking the eviction callback. It returns the
// removed value, if any.
func (c *modelLFU[V]) Remove(key uint64) (V, bool) {
	e, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	heap.Remove(&c.heap, e.index)
	delete(c.items, key)
	return e.value, true
}

// Freq returns the current frequency of key (0 if absent).
func (c *modelLFU[V]) Freq(key uint64) int64 {
	if e, ok := c.items[key]; ok {
		return e.freq
	}
	return 0
}

// Range calls fn for every cached entry until fn returns false.
func (c *modelLFU[V]) Range(fn func(key uint64, value V) bool) {
	for k, e := range c.items {
		if !fn(k, e.value) {
			return
		}
	}
}

// modelCombined is the three-structure Combined this package shipped until
// the single-index rewrite, kept verbatim as the reference the differential
// test drives beside it: an LRU in front of an LFU, each with its own index,
// plus a visit-count map. Its original documentation follows.
//
// Combined is the paper's two-level eviction policy (Appendix D): a recency
// level (LRU) in front of a frequency level (LFU). Whenever a parameter is
// visited it enters the LRU; entries evicted from the LRU are demoted into
// the LFU; entries evicted from the LFU are handed to the eviction callback
// so the MEM-PS can flush them to the SSD-PS before releasing their memory.
// Working parameters of in-flight batches are pinned in the LRU.
//
// Combined is not safe for concurrent use.
type modelCombined[V any] struct {
	lru   *LRU[V]
	lfu   *modelLFU[V]
	stats Stats
	// visitCount tracks per-key access counts while a key lives in the LRU so
	// its frequency is preserved when it is demoted.
	visitCount map[uint64]int64
}

// newModelCombined builds a combined cache with the given per-level capacities.
// onEvict receives entries that leave the cache entirely; it may be nil.
func newModelCombined[V any](lruCapacity, lfuCapacity int, onEvict EvictFunc[V]) *modelCombined[V] {
	c := &modelCombined[V]{visitCount: make(map[uint64]int64)}
	c.lfu = newModelLFU[V](lfuCapacity, func(key uint64, value V) {
		c.stats.Evictions++
		if onEvict != nil {
			onEvict(key, value)
		}
	})
	c.lru = NewLRU[V](lruCapacity, func(key uint64, value V) {
		// Demote to the LFU, carrying over the observed access count.
		c.stats.Demotions++
		freq := c.visitCount[key]
		delete(c.visitCount, key)
		c.lfu.PutWithFreq(key, value, freq)
	})
	return c
}

// Len returns the total number of entries across both levels.
func (c *modelCombined[V]) Len() int { return c.lru.Len() + c.lfu.Len() }

// Stats returns a copy of the accumulated statistics.
func (c *modelCombined[V]) Stats() Stats { return c.stats }

// ResetStats clears the statistics counters (cache contents are unaffected).
func (c *modelCombined[V]) ResetStats() { c.stats = Stats{} }

// Get looks the key up in both levels. A hit in the LFU promotes the entry
// back into the LRU (it is recently used again).
func (c *modelCombined[V]) Get(key uint64) (V, bool) {
	if v, ok := c.lru.Get(key); ok {
		c.stats.Hits++
		c.stats.LRUHits++
		c.visitCount[key]++
		return v, true
	}
	if v, ok := c.lfu.Get(key); ok {
		c.stats.Hits++
		c.stats.LFUHits++
		// Promote back into the recency level.
		freq := c.lfu.Freq(key)
		c.lfu.Remove(key)
		c.visitCount[key] = freq
		c.lru.Put(key, v)
		return v, true
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

// GetApply looks the key up in both levels without updating recency, visit
// frequency, or level placement — the read path for applying writes. A push
// always follows the pull that already counted the visit and refreshed the
// entry's recency, so counting it again would double-weight write traffic in
// the eviction policy (and pay two extra map updates per key for it). Hit and
// miss statistics are still recorded.
func (c *modelCombined[V]) GetApply(key uint64) (V, bool) {
	if v, ok := c.lru.Peek(key); ok {
		c.stats.Hits++
		c.stats.LRUHits++
		return v, true
	}
	if v, ok := c.lfu.Peek(key); ok {
		c.stats.Hits++
		c.stats.LFUHits++
		return v, true
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

// Contains reports whether either level holds the key, without promoting it.
func (c *modelCombined[V]) Contains(key uint64) bool {
	return c.lru.Contains(key) || c.lfu.Contains(key)
}

// Put inserts the key into the recency level.
func (c *modelCombined[V]) Put(key uint64, value V) {
	if c.lfu.Contains(key) {
		c.lfu.Remove(key)
	}
	c.visitCount[key]++
	c.lru.Put(key, value)
}

// Remove deletes the key from whichever level holds it, without invoking the
// eviction callback.
func (c *modelCombined[V]) Remove(key uint64) (V, bool) {
	delete(c.visitCount, key)
	if v, ok := c.lru.Remove(key); ok {
		return v, true
	}
	return c.lfu.Remove(key)
}

// Pin marks a key in the LRU as unevictable until a matching Unpin; pins
// nest across overlapping batches. It reports whether the key was found in
// the LRU (keys in the LFU cannot be pinned; Get them first to promote
// them).
func (c *modelCombined[V]) Pin(key uint64) bool { return c.lru.Pin(key) }

// Unpin releases one pin set by Pin.
func (c *modelCombined[V]) Unpin(key uint64) bool { return c.lru.Unpin(key) }

// Pinned reports whether the key is currently pinned in the LRU.
func (c *modelCombined[V]) Pinned(key uint64) bool { return c.lru.Pinned(key) }

// Range calls fn for every cached entry across both levels until fn returns
// false. Unlike Flush it does not evict; it is how the replication layer
// enumerates the keys a shard currently holds in memory.
func (c *modelCombined[V]) Range(fn func(key uint64, value V) bool) {
	cont := true
	c.lru.Range(func(k uint64, v V) bool {
		cont = fn(k, v)
		return cont
	})
	if !cont {
		return
	}
	c.lfu.Range(fn)
}

// Flush evicts every entry from both levels through the eviction callback.
// It is used at shutdown to persist all cached parameters.
func (c *modelCombined[V]) Flush(onEach func(key uint64, value V)) {
	c.lru.Range(func(k uint64, v V) bool {
		if onEach != nil {
			onEach(k, v)
		}
		return true
	})
	c.lfu.Range(func(k uint64, v V) bool {
		if onEach != nil {
			onEach(k, v)
		}
		return true
	})
	c.lru = NewLRU[V](c.lru.Capacity(), c.lru.onEvict)
	c.lfu = newModelLFU[V](c.lfu.Capacity(), c.lfu.onEvict)
	c.visitCount = make(map[uint64]int64)
}
