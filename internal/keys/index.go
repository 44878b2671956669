package keys

import "slices"

// Index is the parameter partitioning of one batch (Algorithm 1 lines 3-5),
// computed once: the sorted union of the keys the batch references and, for
// every key occurrence, its row in that union. Everything downstream reads
// it instead of sorting or searching again — the pull stage takes Unique as
// the working set, and a GPU worker turns its example range into a key set
// and row offsets with Subset. An IndexBuilder fills it; a built Index may be
// read from several goroutines.
type Index struct {
	// Unique holds the distinct keys in increasing order.
	Unique []Key
	// Rows[i] is the row in Unique of the i-th key occurrence of the batch.
	Rows []int32
}

// IndexBuilder builds the Index of one batch at a time: Reset, Add (once per
// example, in batch order), Build. It owns the sort's scratch — 12 bytes per
// key occurrence, beside the 4 of the Index's own Rows, which double as the
// sort's second buffer — and reuses it from batch to batch, as Build reuses
// the Index's slices, so indexing a batch in steady state allocates nothing.
// One builder serves a stream of batches; the indexes it fills travel with
// their batches. It is not safe for concurrent use.
type IndexBuilder struct {
	// occ are the occurrences added since Reset; spare is one of the radix
	// sort's two buffers of positions into occ.
	occ   []Key
	spare []int32
}

// Reset forgets the occurrences of the previous batch.
func (b *IndexBuilder) Reset() { b.occ = b.occ[:0] }

// Add appends ks as the next key occurrences.
func (b *IndexBuilder) Add(ks []Key) { b.occ = append(b.occ, ks...) }

// Build fills x for the occurrences added since Reset: one SortPositions of
// the occurrence positions by key, then one sweep that emits each distinct
// key once and sends every occurrence's row back to its position.
func (b *IndexBuilder) Build(x *Index) {
	n := len(b.occ)
	x.Unique = x.Unique[:0]
	x.Rows = slices.Grow(x.Rows[:0], n)[:n]
	b.spare = slices.Grow(b.spare[:0], n)[:n]
	SortPositions(b.occ, b.spare, x.Rows)
	for i, pos := range b.spare {
		k := b.occ[pos]
		if i == 0 || k != b.occ[b.spare[i-1]] {
			x.Unique = append(x.Unique, k)
		}
		x.Rows[pos] = int32(len(x.Unique) - 1)
	}
}

// SortPositions fills order with the positions 0..len(ks)-1 of ks in
// increasing key order, equal keys in position order: one stable LSD radix
// sort, byte by byte over the bytes in which the keys actually differ (a
// 60,000-key universe sorts in two passes, a 2^40 one in five), without a
// comparison. tmp is the sort's second buffer; order and tmp must both have
// length len(ks).
func SortPositions(ks []Key, order, tmp []int32) {
	var differ Key
	for _, k := range ks {
		differ |= k ^ ks[0]
	}
	// The digits worth a pass, as shifts; a digit's histogram does not depend
	// on the order, so one sequential sweep counts all of them.
	var buf [8]int
	shifts := buf[:0]
	for shift := 0; shift < 64; shift += 8 {
		if differ>>shift&0xff != 0 {
			shifts = append(shifts, shift)
		}
	}
	if len(shifts) == 0 { // at most one distinct key
		for pos := range ks {
			order[pos] = int32(pos)
		}
		return
	}
	var count [8][256]int32
	for _, k := range ks {
		for d, shift := range shifts {
			count[d][byte(k>>shift)]++
		}
	}
	// The passes alternate between the two buffers so that the last one
	// lands in order.
	src, dst := tmp, order
	if len(shifts)%2 == 0 {
		src, dst = dst, src
	}
	for d, shift := range shifts {
		next := &count[d] // next[v]: where the next position with digit v goes
		sum := int32(0)
		for v, c := range next {
			next[v], sum = sum, sum+c
		}
		if d == 0 { // the keys themselves are the first pass's source
			for pos, k := range ks {
				v := byte(k >> shift)
				dst[next[v]] = int32(pos)
				next[v]++
			}
		} else {
			for _, pos := range src {
				v := byte(ks[pos] >> shift)
				dst[next[v]] = pos
				next[v]++
			}
		}
		src, dst = dst, src
	}
}

// Subset derives the key set of the occurrences [lo, hi) — one GPU's share of
// the batch — without sorting: it marks the rows those occurrences touch and
// collects the marked rows in Unique's order, which is already sorted. ks
// receives the keys; local, indexed by row of Unique, receives each touched
// row's position in ks, so local[x.Rows[i]] addresses occurrence i's key in
// ks for every lo <= i < hi (rows the range does not touch hold -1). Both
// slices are reused when large enough.
func (x *Index) Subset(lo, hi int, ks []Key, local []int32) ([]Key, []int32) {
	ks = ks[:0]
	local = slices.Grow(local[:0], len(x.Unique))[:len(x.Unique)]
	for r := range local {
		local[r] = -1
	}
	for _, r := range x.Rows[lo:hi] {
		local[r] = 0
	}
	for r, k := range x.Unique {
		if local[r] == 0 {
			local[r] = int32(len(ks))
			ks = append(ks, k)
		}
	}
	return ks, local
}
