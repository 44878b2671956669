// Package cache implements the in-memory parameter caching policies used by
// the MEM-PS (Section 5, Appendix D): an LRU cache, an LFU cache, and the
// paper's combined policy in which entries evicted from the LRU are demoted
// into the LFU and entries evicted from the LFU are handed to the caller
// (which flushes them to the SSD-PS before releasing the memory).
//
// Working parameters of the in-flight batches are pinned and are never
// evicted until their batch completes, preserving the pipeline's data
// integrity guarantee.
package cache

// EvictFunc is called with every entry that leaves a cache through eviction
// (not through Remove).
type EvictFunc[V any] func(key uint64, value V)

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
