package keys

import "math/bits"

// Table is an open-addressed hash table from Key to V: one flat array of
// slots, linear probing, and backward-shift deletion, so it needs no
// tombstones and a delete leaves every probe sequence as short as if the key
// had never been inserted. Every uint64 is a valid key, 0 and MaxUint64
// included. A key's home slot is taken from the high bits of Key.Hash:
// HashShard places a key on a GPU by Hash modulo the GPU count, so the low
// bits are far from uniform over one GPU's keys.
//
// The table doubles when it is half full and never shrinks; once it has
// grown to its working size, no operation allocates. The zero Table is
// empty and ready to use. A Table is not safe for concurrent use.
type Table[V any] struct {
	// slots holds every key but the marker; a free slot holds the marker.
	slots []tableSlot[V]
	// The marker key itself, when the table holds it, lives beside the
	// array, so a slot needs no flag of its own.
	hasMarker bool
	markerVal V
	n         int
	// shift turns a hash into a home slot: hash >> shift is below len(slots).
	shift uint
}

// marker is the key a free slot holds.
const marker Key = 0

type tableSlot[V any] struct {
	key Key
	val V
}

// minTableSlots is the size of a table's first array.
const minTableSlots = 16

// Len returns the number of keys in the table.
func (t *Table[V]) Len() int { return t.n }

// home returns k's first probe position.
func (t *Table[V]) home(k Key) int { return int(k.Hash() >> t.shift) }

// find returns the position of k, which must not be the marker, or -1 when
// the table does not hold it.
func (t *Table[V]) find(k Key) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case k:
			return i
		case marker:
			return -1
		}
	}
}

// Get returns k's value and whether the table holds k.
func (t *Table[V]) Get(k Key) (V, bool) {
	if k == marker {
		return t.markerVal, t.hasMarker
	}
	if i := t.find(k); i >= 0 {
		return t.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Ptr returns a pointer to k's value, nil when the table does not hold k.
// The pointer is valid until the next Put, Upsert, Delete or Clear.
func (t *Table[V]) Ptr(k Key) *V {
	if k == marker {
		if t.hasMarker {
			return &t.markerVal
		}
		return nil
	}
	if i := t.find(k); i >= 0 {
		return &t.slots[i].val
	}
	return nil
}

// Has reports whether the table holds k.
func (t *Table[V]) Has(k Key) bool {
	if k == marker {
		return t.hasMarker
	}
	return t.find(k) >= 0
}

// Put sets k's value, inserting k if the table does not hold it.
func (t *Table[V]) Put(k Key, v V) {
	p, _ := t.Upsert(k)
	*p = v
}

// Upsert returns a pointer to k's value, inserting k with the zero value if
// the table does not hold it, and reports whether k was already there. The
// pointer is valid until the next Put, Upsert, Delete or Clear.
func (t *Table[V]) Upsert(k Key) (*V, bool) {
	if k == marker {
		had := t.hasMarker
		if !had {
			var zero V
			t.hasMarker, t.markerVal = true, zero
			t.n++
		}
		return &t.markerVal, had
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		switch s.key {
		case k:
			return &s.val, true
		case marker:
			s.key = k
			t.n++
			return &s.val, false
		}
	}
}

// Delete removes k and returns the value it had, if the table held it. The
// keys after k in its probe run shift back into the gap, each as far as its
// home slot allows, so the run stays unbroken.
func (t *Table[V]) Delete(k Key) (V, bool) {
	var zero V
	if k == marker {
		old, had := t.markerVal, t.hasMarker
		if had {
			t.hasMarker, t.markerVal = false, zero
			t.n--
		}
		return old, had
	}
	i := t.find(k)
	if i < 0 {
		return zero, false
	}
	old := t.slots[i].val
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != marker; j = (j + 1) & mask {
		// The key at j may fill the gap at i when its home lies cyclically
		// at or before i: the distance from its home to j covers i.
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = tableSlot[V]{}
	t.n--
	return old, true
}

// Clear removes every key and keeps the slot array.
func (t *Table[V]) Clear() {
	clear(t.slots)
	var zero V
	t.hasMarker, t.markerVal, t.n = false, zero, 0
}

// Range calls fn for every key and value — the marker key first, then in
// slot order — until fn returns false. fn must not change the table.
func (t *Table[V]) Range(fn func(k Key, v V) bool) {
	if t.hasMarker && !fn(marker, t.markerVal) {
		return
	}
	for i := range t.slots {
		if s := &t.slots[i]; s.key != marker && !fn(s.key, s.val) {
			return
		}
	}
}

// grow doubles the slot array and reinserts every key.
func (t *Table[V]) grow() {
	old := t.slots
	size := max(2*len(old), minTableSlots)
	t.slots = make([]tableSlot[V], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.key == marker {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].key != marker {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
