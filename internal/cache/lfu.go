package cache

import "hps/internal/keys"

// LFU is a least-frequently-used cache keyed by uint64, with FIFO tie
// breaking among equally frequent entries: of two keys with the same
// frequency the one inserted first is evicted first. It keeps its entries in
// the frequency order a Combined's LFU level uses. It is not safe for
// concurrent use.
type LFU[V any] struct {
	capacity int
	onEvict  EvictFunc[V]
	items    keys.Table[*entry[V]]
	order    freqOrder[V]
	seq      int64
}

// NewLFU creates an LFU cache holding at most capacity entries. onEvict may
// be nil. A capacity <= 0 is treated as 1.
func NewLFU[V any](capacity int, onEvict EvictFunc[V]) *LFU[V] {
	return &LFU[V]{capacity: max(capacity, 1), onEvict: onEvict}
}

// Get returns the value for key and increments its frequency.
func (c *LFU[V]) Get(key uint64) (V, bool) {
	if e, ok := c.items.Get(keys.Key(key)); ok {
		c.order.setVisits(e, e.visits+1)
		return e.value, true
	}
	var zero V
	return zero, false
}

// Put inserts or updates key. New entries start with the given initial
// frequency of 1; use PutWithFreq to preserve a frequency carried over from
// another cache level. If the cache overflows, the least frequently used
// entry is evicted.
func (c *LFU[V]) Put(key uint64, value V) {
	c.PutWithFreq(key, value, 1)
}

// PutWithFreq inserts key with an explicit frequency (at least 1), or updates
// it and adds the frequency to the one it has. The serving tier seeds its
// hot-key cache with a parameter's training show-count this way.
func (c *LFU[V]) PutWithFreq(key uint64, value V, freq int64) {
	freq = max(freq, 1)
	p, ok := c.items.Upsert(keys.Key(key))
	if ok {
		e := *p
		e.value = value
		c.order.setVisits(e, e.visits+freq)
		return
	}
	c.seq++
	e := &entry[V]{key: key, value: value, visits: freq, seq: c.seq}
	*p = e
	c.order.push(e)
	for c.items.Len() > c.capacity {
		victim := c.order.min()
		c.order.remove(victim)
		c.items.Delete(keys.Key(victim.key))
		if c.onEvict != nil {
			c.onEvict(victim.key, victim.value)
		}
	}
}
