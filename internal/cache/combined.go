// Package cache implements the in-memory parameter caching policies used by
// the MEM-PS (Section 5, Appendix D): the paper's combined policy, in which
// entries evicted from an LRU level are demoted into an LFU level and entries
// evicted from the LFU are handed to the caller (which flushes them to the
// SSD-PS before releasing the memory), and an LFU cache, which the serving
// tier keeps its hot-key replica rows in.
//
// Working parameters of the in-flight batches are pinned and are never
// evicted until their batch completes, preserving the pipeline's data
// integrity guarantee; a Ref reaches a pinned entry again without a probe.
// Both caches index their entries with one open-addressed keys.Table, not a
// Go map.
package cache

import "hps/internal/keys"

// EvictFunc is called with every entry that leaves a cache through eviction
// (not through Remove).
type EvictFunc[V any] func(key uint64, value V)

// Stats summarizes cache effectiveness (the metric plotted in Fig 4c).
type Stats struct {
	// Hits counts Get calls served from either level.
	Hits int64
	// Misses counts Get calls that found nothing.
	Misses int64
	// LRUHits counts hits served by the recency level.
	LRUHits int64
	// LFUHits counts hits served by the frequency level.
	LFUHits int64
	// Demotions counts entries moved from the LRU into the LFU.
	Demotions int64
	// Evictions counts entries that left the combined cache entirely.
	Evictions int64
}

// Combined is the paper's two-level eviction policy (Appendix D): a recency
// level (LRU) in front of a frequency level (LFU). Whenever a parameter is
// visited it enters the LRU; entries evicted from the LRU are demoted into
// the LFU, carrying the visits they collected as their frequency; entries
// evicted from the LFU — the least frequent, the one demoted first among
// equals — are handed to the eviction callback so the MEM-PS can flush them
// to the SSD-PS before releasing their memory. A Get that hits the LFU
// promotes the entry back into the LRU with its frequency, plus the hit, as
// its visit count; a Put on an LFU-resident key also moves it into the LRU
// but restarts its visit count at 1.
//
// Working parameters of in-flight batches are pinned in the LRU. A pinned
// entry is "in use" until its batch completes, not merely recently used: the
// first pin takes it off the eviction order altogether and the last Unpin
// puts it back at the most-recently-used end, so the LRU victim is always
// the tail of the order and every operation is O(1) in the pinned count. The
// LRU level never evicts the order's most recent entry — when everything
// older is pinned it overflows instead.
//
// Both levels share one index — an open-addressed keys.Table with one entry
// per key — so a miss costs three probes on its way in and out (the missed
// Get, Put's insert, the final eviction's delete) and a demotion none. A
// batch's working set is pinned in the same probe that finds or inserts it
// (GetPin, PutPin), and the Ref those return reaches the pinned entry again
// with no probe at all (ApplyRef, UnpinRef). The LFU level is
// a frequency order (FIFO buckets per visit count): a demotion, a promotion
// and an eviction each cost O(1), without comparisons below 4,096 visits.
//
// Combined is not safe for concurrent use; the MEM-PS serializes access
// behind its own lock.
type Combined[V any] struct {
	lruCap, lfuCap int
	onEvict        EvictFunc[V]
	items          keys.Table[*entry[V]]
	// order is the sentinel of the LRU level's eviction order (unpinned
	// entries, most recently used first); held is the sentinel of its pinned
	// entries, most recently pinned first. lruLen counts both.
	order, held entry[V]
	lruLen      int
	// lfu is the frequency level, ordered by (visits, seq).
	lfu freqOrder[V]
	seq int64
	// free chains (through next) the entries of keys that left the cache; Put
	// reuses them, so a steady miss stream allocates nothing.
	free  *entry[V]
	stats Stats
}

// NewCombined builds a combined cache with the given per-level capacities
// (a capacity <= 0 is treated as 1). onEvict receives entries that leave the
// cache entirely; it may be nil.
func NewCombined[V any](lruCapacity, lfuCapacity int, onEvict EvictFunc[V]) *Combined[V] {
	c := &Combined[V]{lruCap: max(lruCapacity, 1), lfuCap: max(lfuCapacity, 1), onEvict: onEvict}
	c.clear()
	return c
}

// clear empties both levels, pins included. The entries go to the free
// list, zeroed, so a Ref to one of them no longer Holds.
func (c *Combined[V]) clear() {
	c.items.Range(func(_ keys.Key, e *entry[V]) bool {
		*e = entry[V]{next: c.free}
		c.free = e
		return true
	})
	c.items.Clear()
	c.order.prev, c.order.next = &c.order, &c.order
	c.held.prev, c.held.next = &c.held, &c.held
	c.lfu.reset()
	c.lruLen, c.seq = 0, 0
}

// Len returns the total number of entries across both levels.
func (c *Combined[V]) Len() int { return c.items.Len() }

// Stats returns a copy of the accumulated statistics.
func (c *Combined[V]) Stats() Stats { return c.stats }

// touch marks an unpinned LRU-level entry most recently used.
func (c *Combined[V]) touch(e *entry[V]) {
	if e.pins == 0 && c.order.next != e {
		e.unlink()
		e.pushFront(&c.order)
	}
}

// enterLRU links e, which is on neither level, at the most-recently-used end
// of the LRU and demotes whatever overflows.
func (c *Combined[V]) enterLRU(e *entry[V]) {
	e.pos = inLRU
	e.pushFront(&c.order)
	c.lruLen++
	c.demoteOverflow()
}

// demoteOverflow moves entries from the tail of the eviction order into the
// LFU while the LRU level is over capacity, but never the order's most
// recently used entry: a freshly inserted (or just unpinned) entry must not
// be the victim of its own arrival when everything older is pinned — the
// level overflows instead. An LFU overflow evicts its minimum, which may be
// the entry just demoted.
func (c *Combined[V]) demoteOverflow() {
	for c.lruLen > c.lruCap {
		e := c.order.prev
		if e == c.order.next {
			return // zero or one unpinned entries
		}
		e.unlink()
		c.lruLen--
		c.stats.Demotions++
		c.seq++
		e.seq = c.seq
		c.lfu.push(e)
		for c.lfu.len() > c.lfuCap {
			victim := c.lfu.min()
			c.lfu.remove(victim)
			key, value := victim.key, victim.value
			c.release(victim)
			c.stats.Evictions++
			if c.onEvict != nil {
				c.onEvict(key, value)
			}
		}
	}
}

// release drops key's entry e, already off both levels, from the index and
// keeps it for the next new key.
func (c *Combined[V]) release(e *entry[V]) {
	c.items.Delete(keys.Key(e.key))
	*e = entry[V]{next: c.free}
	c.free = e
}

// Get looks the key up in both levels. A hit in the LFU promotes the entry
// back into the LRU (it is recently used again).
func (c *Combined[V]) Get(key uint64) (V, bool) {
	e, ok := c.items.Get(keys.Key(key))
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.hit(e)
	return e.value, true
}

// hit counts a Get hit on e and makes it the most recently used entry of the
// LRU level, promoting it out of the LFU.
func (c *Combined[V]) hit(e *entry[V]) {
	c.stats.Hits++
	if e.pos == inLRU {
		c.stats.LRUHits++
		e.visits++
		c.touch(e)
		return
	}
	c.stats.LFUHits++
	c.lfu.remove(e) // before the count that places it there changes
	e.visits++
	c.enterLRU(e)
}

// GetApply looks the key up in both levels without updating recency, visit
// frequency, or level placement — the read path for applying writes. A push
// always follows the pull that already counted the visit and refreshed the
// entry's recency, so counting it again would double-weight write traffic in
// the eviction policy. Hit and miss statistics are still recorded.
func (c *Combined[V]) GetApply(key uint64) (V, bool) {
	e, ok := c.items.Get(keys.Key(key))
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.stats.Hits++
	if e.pos == inLRU {
		c.stats.LRUHits++
	} else {
		c.stats.LFUHits++
	}
	return e.value, true
}

// Contains reports whether either level holds the key, without promoting it.
func (c *Combined[V]) Contains(key uint64) bool {
	return c.items.Has(keys.Key(key))
}

// Put inserts or updates the key in the recency level and counts a visit. A
// key resident in the LFU moves into the LRU with its visit count restarted
// at 1: the frequency it carried is dropped, unlike on a Get hit.
func (c *Combined[V]) Put(key uint64, value V) {
	c.put(key, value)
}

// put is Put, returning the key's entry.
func (c *Combined[V]) put(key uint64, value V) *entry[V] {
	p, ok := c.items.Upsert(keys.Key(key))
	e := *p
	switch {
	case !ok:
		if e = c.free; e != nil {
			c.free = e.next
		} else {
			e = new(entry[V])
		}
		e.key, e.value, e.visits = key, value, 1
		*p = e // before enterLRU, whose evictions may move the table's slots
		c.enterLRU(e)
	case e.pos == inLRU:
		e.value = value
		e.visits++
		c.touch(e)
	default:
		c.lfu.remove(e)
		e.value = value
		e.visits = 1
		c.enterLRU(e)
	}
	return e
}

// Remove deletes the key from whichever level holds it, pinned or not,
// without invoking the eviction callback.
func (c *Combined[V]) Remove(key uint64) (V, bool) {
	e, ok := c.items.Get(keys.Key(key))
	if !ok {
		var zero V
		return zero, false
	}
	if e.pos == inLRU {
		e.unlink()
		c.lruLen--
	} else {
		c.lfu.remove(e)
	}
	value := e.value
	c.release(e)
	return value, true
}

// Ref refers to one pinned entry of a Combined. A pinned entry never leaves
// the cache, so while the pin GetPin or PutPin took for the Ref is held, the
// Ref reaches the entry without a probe. The zero Ref refers to nothing.
type Ref[V any] struct{ e *entry[V] }

func (c *Combined[V]) pin(e *entry[V]) {
	if e.pins == 0 {
		e.unlink()
		e.pushFront(&c.held)
	}
	e.pins++
}

// GetPin is Get followed by pinning the key it found, in one probe: it
// returns the value and a Ref to the pinned entry.
func (c *Combined[V]) GetPin(key uint64) (V, Ref[V], bool) {
	e, ok := c.items.Get(keys.Key(key))
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, Ref[V]{}, false
	}
	c.hit(e)
	c.pin(e)
	return e.value, Ref[V]{e}, true
}

// PutPin is Put followed by pinning the key, in one probe, and returns a Ref
// to the pinned entry.
func (c *Combined[V]) PutPin(key uint64, value V) Ref[V] {
	e := c.put(key, value)
	c.pin(e)
	return Ref[V]{e}
}

// Holds reports whether r refers to key's entry and that entry is pinned —
// true as long as the pin r was taken with is held, and false once the
// entry has left the cache (a Flush empties it, pins included).
func (c *Combined[V]) Holds(r Ref[V], key uint64) bool {
	return r.e != nil && r.e.pins > 0 && r.e.key == key && r.e.pos == inLRU
}

// ApplyRef is GetApply through a Ref: it returns the pinned entry's value
// and counts the hit, without a probe. r must hold its pin.
func (c *Combined[V]) ApplyRef(r Ref[V]) V {
	c.stats.Hits++
	c.stats.LRUHits++
	return r.e.value
}

// Unpin releases one pin set by GetPin or PutPin. Once no pins remain the
// entry re-enters the eviction order as the most recently used one, and
// overflow the pins were holding back is demoted. It reports whether the key
// was found in the LRU.
func (c *Combined[V]) Unpin(key uint64) bool {
	e, ok := c.items.Get(keys.Key(key))
	if !ok || e.pos != inLRU {
		return false
	}
	c.unpin(e)
	return true
}

// UnpinRef is Unpin through a Ref, without a probe. r must hold its pin.
func (c *Combined[V]) UnpinRef(r Ref[V]) { c.unpin(r.e) }

func (c *Combined[V]) unpin(e *entry[V]) {
	if e.pins > 0 {
		e.pins--
		if e.pins == 0 {
			e.unlink()
			e.pushFront(&c.order)
			c.demoteOverflow()
		}
	}
}

// Pinned reports whether the key is currently pinned in the LRU.
func (c *Combined[V]) Pinned(key uint64) bool {
	e, ok := c.items.Get(keys.Key(key))
	return ok && e.pins > 0
}

// Range calls fn for every cached entry until fn returns false: the LRU
// level's pinned entries (most recently pinned first), its unpinned ones
// (most recently used first), then the LFU level in the order it would evict
// them — fewest visits first, the earliest demoted among equals.
// Unlike Flush it does not evict; it is how the replication layer enumerates
// the keys a shard currently holds in memory.
func (c *Combined[V]) Range(fn func(key uint64, value V) bool) {
	for _, root := range [...]*entry[V]{&c.held, &c.order} {
		for e := root.next; e != root; e = e.next {
			if !fn(e.key, e.value) {
				return
			}
		}
	}
	c.lfu.each(func(e *entry[V]) bool { return fn(e.key, e.value) })
}

// Flush hands every entry of both levels to onEach, in Range's order, and
// empties the cache, pins included; the eviction callback is not invoked and
// the statistics are kept. It is used at shutdown and at checkpoints to
// persist all cached parameters.
func (c *Combined[V]) Flush(onEach func(key uint64, value V)) {
	if onEach != nil {
		c.Range(func(k uint64, v V) bool {
			onEach(k, v)
			return true
		})
	}
	c.clear()
}
