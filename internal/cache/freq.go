package cache

import (
	"cmp"
	"math/bits"
	"slices"
)

// freqBuckets is how many visit counts have a bucket of their own in a
// frequency order: counts below it are bucketed, higher ones go to its heap.
// On the cold training benchmark the most visited parameter a MEM-PS demotes
// has under 2,000 visits.
const freqBuckets = 4096

// freqOrder holds entries in eviction order: the least frequent first, the
// one that entered first among equals — (visits, seq) ascending. It is the
// O(1) LFU construction: one FIFO bucket per visit count, linked through the
// entries' prev/next in seq order, and a two-level bitmap of the non-empty
// buckets, whose lowest set bit is the minimum; push, remove and min cost no
// comparisons. Two kinds of entry cannot keep a bucket in seq order by being
// appended and go to a binary heap on (visits, seq) instead: those with
// freqBuckets visits or more, and those older than the newest entry of their
// bucket — an LFU key whose count rose past a newer key's. A Combined only
// ever adds its newest demotion, so its entries reach the heap only by
// visit count. The minimum is the lesser of the lowest bucket's oldest entry
// and the heap's top, so the order is exact either way.
type freqOrder[V any] struct {
	// heads[v] is the oldest entry of the bucket of visit count v (nil when
	// it is empty); heads[v].prev is its newest. heads grows to the highest
	// count bucketed so far.
	heads []*entry[V]
	// used has bit v set while bucket v is non-empty, and summary bit w while
	// used[w] is non-zero.
	used    [freqBuckets / 64]uint64
	summary uint64
	// bucketed counts the entries in buckets; the rest are in heap.
	bucketed int
	heap     freqHeap[V]
}

// len returns the number of entries in the order.
func (o *freqOrder[V]) len() int { return o.bucketed + len(o.heap) }

// reset empties the order. The entries are left as they are.
func (o *freqOrder[V]) reset() {
	clear(o.heads)
	o.used, o.summary, o.bucketed = [freqBuckets / 64]uint64{}, 0, 0
	clear(o.heap)
	o.heap = o.heap[:0]
}

// push adds e, which must not be in the order, at its (visits, seq) place.
func (o *freqOrder[V]) push(e *entry[V]) {
	if v := e.visits; v < freqBuckets {
		if v >= int64(len(o.heads)) {
			o.heads = append(o.heads, make([]*entry[V], int(v)+1-len(o.heads))...)
		}
		switch head := o.heads[v]; {
		case head == nil:
			e.prev, e.next = e, e
			o.heads[v] = e
			o.used[v>>6] |= 1 << (v & 63)
			o.summary |= 1 << (v >> 6)
		case head.prev.seq < e.seq:
			e.pushFront(head.prev)
		default:
			o.heap.push(e)
			return
		}
		e.pos = inBucket
		o.bucketed++
		return
	}
	o.heap.push(e)
}

// remove takes e, which must be in the order, out of it.
func (o *freqOrder[V]) remove(e *entry[V]) {
	if e.pos != inBucket {
		o.heap.remove(e.pos)
		return
	}
	o.bucketed--
	v := e.visits
	if e.next != e {
		e.unlink()
		if o.heads[v] == e {
			o.heads[v] = e.next
		}
		return
	}
	o.heads[v] = nil
	if o.used[v>>6] &^= 1 << (v & 63); o.used[v>>6] == 0 {
		o.summary &^= 1 << (v >> 6)
	}
}

// min returns the entry to evict first, or nil when the order is empty.
func (o *freqOrder[V]) min() *entry[V] {
	var m *entry[V]
	if o.summary != 0 {
		w := bits.TrailingZeros64(o.summary)
		m = o.heads[w<<6|bits.TrailingZeros64(o.used[w])]
	}
	if len(o.heap) > 0 && (m == nil || before(o.heap[0], m)) {
		m = o.heap[0]
	}
	return m
}

// setVisits changes the visit count of e, which must be in the order, and
// moves it to its new place. A heap entry stays in the heap.
func (o *freqOrder[V]) setVisits(e *entry[V], visits int64) {
	if e.pos >= 0 {
		e.visits = visits
		o.heap.fix(e.pos)
		return
	}
	o.remove(e)
	e.visits = visits
	o.push(e)
}

// each calls fn for every entry in eviction order until fn returns false; fn
// must not change the order. The heap part is merged in from a sorted copy.
func (o *freqOrder[V]) each(fn func(e *entry[V]) bool) {
	var big []*entry[V]
	if len(o.heap) > 0 {
		big = slices.Clone(o.heap)
		slices.SortFunc(big, func(a, b *entry[V]) int {
			return cmp.Or(cmp.Compare(a.visits, b.visits), cmp.Compare(a.seq, b.seq))
		})
	}
	for w, word := range o.used {
		for ; word != 0; word &= word - 1 {
			head := o.heads[w<<6|bits.TrailingZeros64(word)]
			for e := head; ; {
				for len(big) > 0 && before(big[0], e) {
					if !fn(big[0]) {
						return
					}
					big = big[1:]
				}
				if !fn(e) {
					return
				}
				if e = e.next; e == head {
					break
				}
			}
		}
	}
	for _, e := range big {
		if !fn(e) {
			return
		}
	}
}

// before reports whether a leaves a frequency order before b.
func before[V any](a, b *entry[V]) bool {
	if a.visits != b.visits {
		return a.visits < b.visits
	}
	return a.seq < b.seq
}

// freqHeap is a binary min-heap of entries on (visits, seq), the part of a
// freqOrder its buckets do not hold. It is typed — no container/heap, no
// boxing — and keeps every entry's position in entry.pos, so an entry can be
// fixed or removed in place.
type freqHeap[V any] []*entry[V]

func (h freqHeap[V]) up(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !before(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].pos = i
		i = p
	}
	h[i] = e
	e.pos = i
}

func (h freqHeap[V]) down(i int) {
	e := h[i]
	for {
		kid := 2*i + 1
		if kid >= len(h) {
			break
		}
		if r := kid + 1; r < len(h) && before(h[r], h[kid]) {
			kid = r
		}
		if !before(h[kid], e) {
			break
		}
		h[i] = h[kid]
		h[i].pos = i
		i = kid
	}
	h[i] = e
	e.pos = i
}

// fix restores the order after the entry at position i changed its visits.
func (h freqHeap[V]) fix(i int) {
	e := h[i]
	h.down(i)
	if e.pos == i {
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
		moved.pos = i
		old[:last].fix(i)
	}
}
