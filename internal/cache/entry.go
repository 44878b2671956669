package cache

// An entry's pos says where it lives: one of these, or its position in a
// frequency order's heap.
const (
	inLRU    = -1 // on one of a Combined's LRU-level lists
	inBucket = -2 // in a frequency order's bucket of its visit count
)

// entry is one cached key of a Combined or an LFU (which uses no pins). In a
// Combined, which level holds it is a field, not a container: an LRU-level
// entry is linked on one of the two LRU lists and has pos == inLRU, an
// LFU-level entry is in the frequency order (linked in a bucket, or in its
// heap) — so moving between levels relinks the entry and touches neither the
// index nor the allocator.
type entry[V any] struct {
	prev, next *entry[V]
	key        uint64
	value      V
	// visits is the entry's frequency. In a Combined it counts the accesses
	// since the key last entered the LRU level (restored from the frequency
	// it had in the LFU on promotion) and stands still while the entry is in
	// the LFU.
	visits int64
	// seq orders equally frequent entries of a frequency order: the one that
	// entered it first is evicted first.
	seq int64
	// pins counts outstanding pins: overlapping pipelined batches may
	// pin the same working parameter, and it stays unevictable until every
	// batch has unpinned it.
	pins int
	pos  int
}

func (e *entry[V]) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// pushFront links e right behind the sentinel root.
func (e *entry[V]) pushFront(root *entry[V]) {
	e.prev, e.next = root, root.next
	root.next.prev = e
	root.next = e
}
