package cache

// inLRU is an entry's heap position while it lives in the LRU level.
const inLRU = -1

// entry is one cached key of a Combined or an LFU (which uses neither the
// links nor the pins). In a Combined, which level holds it is a field, not a
// container: an LRU-level entry is linked on one of the two lists and has
// heap == inLRU, an LFU-level entry is off the lists and heap is its position
// in the frequency heap — so moving between levels relinks the entry and
// touches neither the index nor the allocator.
type entry[V any] struct {
	prev, next *entry[V]
	key        uint64
	value      V
	// visits is the entry's frequency. In a Combined it counts the accesses
	// since the key last entered the LRU level (restored from the frequency
	// it had in the LFU on promotion) and stands still while the entry is in
	// the LFU.
	visits int64
	// seq orders equally frequent heap entries: the one that entered the
	// heap first is evicted first.
	seq int64
	// pins counts outstanding Pin calls: overlapping pipelined batches may
	// pin the same working parameter, and it stays unevictable until every
	// batch has unpinned it.
	pins int
	heap int
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

// freqHeap is a binary min-heap of entries on (visits, seq): the least
// frequent entry first, the one that entered first among equals. It is typed
// — no container/heap, no boxing — and keeps every entry's position in
// entry.heap, so an entry can be fixed or removed in place.
type freqHeap[V any] []*entry[V]

func (h freqHeap[V]) less(a, b *entry[V]) bool {
	if a.visits != b.visits {
		return a.visits < b.visits
	}
	return a.seq < b.seq
}

func (h freqHeap[V]) up(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].heap = i
		i = p
	}
	h[i] = e
	e.heap = i
}

func (h freqHeap[V]) down(i int) {
	e := h[i]
	for {
		kid := 2*i + 1
		if kid >= len(h) {
			break
		}
		if r := kid + 1; r < len(h) && h.less(h[r], h[kid]) {
			kid = r
		}
		if !h.less(h[kid], e) {
			break
		}
		h[i] = h[kid]
		h[i].heap = i
		i = kid
	}
	h[i] = e
	e.heap = i
}

// fix restores the order after the entry at position i changed its visits.
func (h freqHeap[V]) fix(i int) {
	e := h[i]
	h.down(i)
	if e.heap == i {
		h.up(i)
	}
}

func (h *freqHeap[V]) push(e *entry[V]) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// remove takes the entry at position i out of the heap.
func (h *freqHeap[V]) remove(i int) {
	old := *h
	last := len(old) - 1
	moved := old[last]
	old[last] = nil
	*h = old[:last]
	if i != last {
		old[i] = moved
		moved.heap = i
		old[:last].fix(i)
	}
}
