package cache

import "hps/internal/keys"

// The views below let the tests inspect an LFU and pin a Combined entry by
// key, to hold both against their reference models (model_test.go). The
// product reads an LFU only through Get and pins through GetPin and PutPin.

// Len returns the number of cached entries.
func (c *LFU[V]) Len() int { return c.items.Len() }

// Contains reports whether key is cached without touching its frequency.
func (c *LFU[V]) Contains(key uint64) bool { return c.items.Has(keys.Key(key)) }

// Freq returns the current frequency of key (0 if absent).
func (c *LFU[V]) Freq(key uint64) int64 {
	if e, ok := c.items.Get(keys.Key(key)); ok {
		return e.visits
	}
	return 0
}

// Range calls fn for every cached entry, in the order the cache would evict
// them, until fn returns false.
func (c *LFU[V]) Range(fn func(key uint64, value V) bool) {
	c.order.each(func(e *entry[V]) bool { return fn(e.key, e.value) })
}

// Pin marks a key in the LRU as unevictable until a matching Unpin; pins
// nest across overlapping batches. It reports whether the key was found in
// the LRU (keys in the LFU cannot be pinned; Get them first to promote
// them).
func (c *Combined[V]) Pin(key uint64) bool {
	e, ok := c.items.Get(keys.Key(key))
	if !ok || e.pos != inLRU {
		return false
	}
	c.pin(e)
	return true
}

// hitRate returns Hits / (Hits + Misses), or 0 when nothing was looked up.
func hitRate(s Stats) float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}
