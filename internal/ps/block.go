package ps

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"hps/internal/embedding"
	"hps/internal/keys"
)

// ValueBlock is the flat, reusable representation of a batch of embedding
// values: one row per key, in request-key order, backed by two contiguous
// float slabs instead of a map of per-key allocations. It is the unit of the
// batched hot path — PullInto fills one block per mini-batch, the trainer
// indexes examples' features by row offset into it, and PushBlock carries the
// accumulated per-key deltas back — so the steady state moves O(unique keys
// per batch) flat rows instead of O(examples x features) map entries.
//
// Blocks are plain buffers, not thread-safe; reuse them through GetBlock /
// PutBlock so steady-state batches allocate nothing.
type ValueBlock struct {
	// Dim is the embedding dimension of every row.
	Dim int
	// Keys are the row keys, in the order rows are laid out.
	Keys []keys.Key
	// Weights and G2Sum hold len(Keys) rows of Dim float32s each; row i spans
	// [i*Dim, (i+1)*Dim).
	Weights []float32
	G2Sum   []float32
	// Freq holds the per-row reference counts (or count deltas, for pushes).
	Freq []uint32
	// Present marks the rows the serving tier actually holds. Pulls leave
	// missing keys absent (zero row, Present false); pushes skip rows with
	// Present false, which lets callers mask a reused block.
	Present []bool
}

// NewValueBlock returns an empty block for embeddings of the given dimension.
func NewValueBlock(dim int) *ValueBlock { return &ValueBlock{Dim: dim} }

// Len returns the number of rows.
func (b *ValueBlock) Len() int { return len(b.Keys) }

// Reset re-shapes the block for the given dimension and key set, reusing the
// underlying storage. All rows come back zeroed and absent; ks is copied, so
// the caller keeps ownership of its slice.
func (b *ValueBlock) Reset(dim int, ks []keys.Key) {
	b.ResetUninit(dim, ks)
	clear(b.Weights)
	clear(b.G2Sum)
	clear(b.Freq)
	clear(b.Present)
}

// ResetUninit is Reset without clearing: the block takes ks's shape, but
// every row's slabs, frequency and presence hold whatever the reused storage
// held. The caller must write each row it keeps (the per-GPU working-set
// passes of the HBM-PS, which fill disjoint rows concurrently).
func (b *ValueBlock) ResetUninit(dim int, ks []keys.Key) {
	b.Dim = max(dim, 0)
	n := len(ks)
	b.Keys = append(b.Keys[:0], ks...)
	b.Weights = Resize(b.Weights, n*b.Dim)
	b.G2Sum = Resize(b.G2Sum, n*b.Dim)
	b.Freq = Resize(b.Freq, n)
	b.Present = Resize(b.Present, n)
}

// Resize returns s with length n, reusing its storage when it is large
// enough and allocating exactly n elements when not (append-style growth
// would round the capacity up). The contents are not cleared.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Grow ensures the block's backing storage can hold rows additional rows
// without reallocating — the pre-sizing step of the append-style builders
// (delta collection, slab merges), which then run allocation-free.
func (b *ValueBlock) Grow(rows int) {
	if rows <= 0 {
		return
	}
	b.Keys = slices.Grow(b.Keys, rows)
	flat := rows * b.Dim
	b.Weights = slices.Grow(b.Weights, flat)
	b.G2Sum = slices.Grow(b.G2Sum, flat)
	b.Freq = slices.Grow(b.Freq, rows)
	b.Present = slices.Grow(b.Present, rows)
}

// GrowRow appends a zeroed, present row for k and returns its index — the
// append primitive of the slab merges, which add contributions into it.
func (b *ValueBlock) GrowRow(k keys.Key) int {
	i := len(b.Keys)
	b.Keys = append(b.Keys, k)
	b.Weights = appendZeros(b.Weights, b.Dim)
	b.G2Sum = appendZeros(b.G2Sum, b.Dim)
	b.Freq = append(b.Freq, 0)
	b.Present = append(b.Present, true)
	return i
}

func appendZeros(s []float32, n int) []float32 {
	l := len(s)
	s = slices.Grow(s, n)[:l+n]
	for i := l; i < l+n; i++ {
		s[i] = 0
	}
	return s
}

// GrowRowUninit is GrowRow without zero-filling the new row's slabs — they
// may hold stale data from rows truncated earlier. The caller must overwrite
// every element of the weight and accumulator rows or Truncate the row away
// before anything can observe it. Builders that copy whole rows in use it;
// builders that rely on zeroed rows, like the slab merges, use GrowRow.
func (b *ValueBlock) GrowRowUninit(k keys.Key) int {
	i := len(b.Keys)
	b.Keys = append(b.Keys, k)
	b.Weights = slices.Grow(b.Weights, b.Dim)[:len(b.Weights)+b.Dim]
	b.G2Sum = slices.Grow(b.G2Sum, b.Dim)[:len(b.G2Sum)+b.Dim]
	b.Freq = append(b.Freq, 0)
	b.Present = append(b.Present, true)
	return i
}

// Truncate keeps the block's first n rows (storage is retained). n must be
// at most Len.
func (b *ValueBlock) Truncate(n int) {
	b.Keys = b.Keys[:n]
	b.Weights = b.Weights[:n*b.Dim]
	b.G2Sum = b.G2Sum[:n*b.Dim]
	b.Freq = b.Freq[:n]
	b.Present = b.Present[:n]
}

// AppendRow appends a present row for k with the given weight/accumulator
// rows and frequency — the flat-slab counterpart of Set for append-style
// builders. It panics on dimension mismatch. The copies cover the whole row,
// so the growth can skip zero-filling.
func (b *ValueBlock) AppendRow(k keys.Key, w, g2 []float32, freq uint32) {
	if len(w) != b.Dim || len(g2) != b.Dim {
		panic(fmt.Sprintf("ps: ValueBlock.AppendRow dim mismatch: row %d/%d into block of dim %d",
			len(w), len(g2), b.Dim))
	}
	i := b.GrowRowUninit(k)
	copy(b.WeightsRow(i), w)
	copy(b.G2Row(i), g2)
	b.Freq[i] = freq
}

// AppendRows appends rows [lo, hi) of src slab-wise — the bulk counterpart of
// AppendRow for sorted-merge builders, turning a run of rows into four slab
// copies instead of per-row bookkeeping. It panics on dimension mismatch.
func (b *ValueBlock) AppendRows(src *ValueBlock, lo, hi int) {
	if src.Dim != b.Dim {
		panic(fmt.Sprintf("ps: ValueBlock.AppendRows dim mismatch: %d into %d", src.Dim, b.Dim))
	}
	if hi <= lo {
		return
	}
	b.Keys = append(b.Keys, src.Keys[lo:hi]...)
	b.Weights = append(b.Weights, src.Weights[lo*src.Dim:hi*src.Dim]...)
	b.G2Sum = append(b.G2Sum, src.G2Sum[lo*src.Dim:hi*src.Dim]...)
	b.Freq = append(b.Freq, src.Freq[lo:hi]...)
	b.Present = append(b.Present, src.Present[lo:hi]...)
}

// WeightsRow returns row i of the weight slab. The full-slice expression pins
// the row's capacity so appends by the caller cannot bleed into row i+1.
func (b *ValueBlock) WeightsRow(i int) []float32 {
	return b.Weights[i*b.Dim : (i+1)*b.Dim : (i+1)*b.Dim]
}

// G2Row returns row i of the Adagrad-accumulator slab.
func (b *ValueBlock) G2Row(i int) []float32 {
	return b.G2Sum[i*b.Dim : (i+1)*b.Dim : (i+1)*b.Dim]
}

// Set copies v into row i and marks it present. It panics on dimension
// mismatch — a block never silently truncates a value.
func (b *ValueBlock) Set(i int, v *embedding.Value) {
	if v.Dim() != b.Dim || len(v.G2Sum) != b.Dim {
		panic(fmt.Sprintf("ps: ValueBlock.Set dim mismatch: value %d/%d into block of dim %d",
			v.Dim(), len(v.G2Sum), b.Dim))
	}
	copy(b.WeightsRow(i), v.Weights)
	copy(b.G2Row(i), v.G2Sum)
	b.Freq[i] = v.Freq
	b.Present[i] = true
}

// CopyRow copies row j of src, present or absent, into row i of b. Both
// blocks must have the same dimension.
func (b *ValueBlock) CopyRow(i int, src *ValueBlock, j int) {
	copy(b.WeightsRow(i), src.WeightsRow(j))
	copy(b.G2Row(i), src.G2Row(j))
	b.Freq[i] = src.Freq[j]
	b.Present[i] = src.Present[j]
}

// Value returns a freshly allocated copy of row i, or nil if the row is
// absent.
func (b *ValueBlock) Value(i int) *embedding.Value {
	if !b.Present[i] {
		return nil
	}
	v := embedding.NewValue(b.Dim)
	copy(v.Weights, b.WeightsRow(i))
	copy(v.G2Sum, b.G2Row(i))
	v.Freq = b.Freq[i]
	return v
}

// CopyFrom makes b an exact copy of o (used to snapshot a pulled block before
// training mutates it in place).
func (b *ValueBlock) CopyFrom(o *ValueBlock) {
	b.Reset(o.Dim, o.Keys)
	copy(b.Weights, o.Weights)
	copy(b.G2Sum, o.G2Sum)
	copy(b.Freq, o.Freq)
	copy(b.Present, o.Present)
}

// Row returns the row of k in b, whose Keys must be sorted (the batched
// pull paths always assemble into sorted unique-key blocks). The second
// result reports whether k is actually a row of b.
func (b *ValueBlock) Row(k keys.Key) (int, bool) {
	i := sort.Search(len(b.Keys), func(i int) bool { return b.Keys[i] >= k })
	return i, i < len(b.Keys) && b.Keys[i] == k
}

// ScatterRows copies sub's present rows into the rows of b holding the same
// keys. b.Keys must be sorted. Rows for keys b did not ask for are dropped —
// a buggy or hostile peer answering a partition pull must not be able to
// corrupt unrelated rows.
//
// A sub-block is almost always an ascending subsequence of b.Keys (one peer's
// partition of the working set), so after the first key each row is found by
// walking forward from the previous one; a key out of order is searched for.
func (b *ValueBlock) ScatterRows(sub *ValueBlock) {
	i := -1 // b.Keys[:i] are below the previous scattered key
	var prev keys.Key
	for j, k := range sub.Keys {
		if !sub.Present[j] {
			continue
		}
		if i < 0 || k < prev {
			i, _ = b.Row(k)
		}
		prev = k
		for i < len(b.Keys) && b.Keys[i] < k {
			i++
		}
		if i == len(b.Keys) || b.Keys[i] != k {
			continue
		}
		b.CopyRow(i, sub, j)
	}
}

// PresentCount returns the number of present rows.
func (b *ValueBlock) PresentCount() int {
	n := 0
	for _, p := range b.Present {
		if p {
			n++
		}
	}
	return n
}

// Wire layout of a block body (keys travel separately, in the enclosing
// request): an 8-byte header of dimension and row count, then per row one
// present byte, the 4-byte frequency, and the weight and accumulator rows as
// float32s. Encoding is a single append pass — no per-value reflection —
// which is what lets the cluster transport carry a whole batch in one flat
// frame.
const wireRowOverhead = 5 // present byte + uint32 freq

// AppendWireHeader appends the 8-byte block-body header. Together with
// AppendWireRow it lets a serving tier encode rows straight from its own
// storage into the outgoing frame — no intermediate block, no intermediate
// embedding.Value — producing exactly the bytes AppendWire would.
func AppendWireHeader(dst []byte, dim, count int) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(dim))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(count))
	return append(dst, hdr[:]...)
}

// AppendWireRow appends one encoded row: present flag, frequency, then the
// weight and accumulator rows. Every row of a body must carry the dimension
// the header declared, or DecodeWire on the far side rejects it.
func AppendWireRow(dst []byte, present bool, freq uint32, w, g2 []float32) []byte {
	if present {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	var scratch [4]byte
	binary.LittleEndian.PutUint32(scratch[:], freq)
	dst = append(dst, scratch[:]...)
	for _, v := range w {
		binary.LittleEndian.PutUint32(scratch[:], math.Float32bits(v))
		dst = append(dst, scratch[:]...)
	}
	for _, g := range g2 {
		binary.LittleEndian.PutUint32(scratch[:], math.Float32bits(g))
		dst = append(dst, scratch[:]...)
	}
	return dst
}

// AppendWire appends the block body to dst and returns the extended slice.
func (b *ValueBlock) AppendWire(dst []byte) []byte {
	dst = AppendWireHeader(dst, b.Dim, len(b.Keys))
	for i := range b.Keys {
		dst = AppendWireRow(dst, b.Present[i], b.Freq[i], b.WeightsRow(i), b.G2Row(i))
	}
	return dst
}

// maxWireDim bounds the dimension a decoded header may claim, so a corrupt
// or hostile payload cannot make DecodeWire allocate unbounded rows.
const maxWireDim = 1 << 16

// DecodeWire parses a block body produced by AppendWire into b. The rows are
// bound to ks — the keys the requester asked for — which must match the
// encoded row count. The payload may come from a hostile peer; DecodeWire
// validates every length before touching it.
func (b *ValueBlock) DecodeWire(ks []keys.Key, payload []byte) error {
	if len(payload) < 8 {
		return fmt.Errorf("ps: block body too short: %d bytes", len(payload))
	}
	word := binary.LittleEndian.Uint32(payload[0:4])
	// Wire version 3 tagged its fp16 (1) and int8 (2) bodies in the
	// dimension word's high byte; rows are fp32 only now.
	if tag := word >> 24; tag != 0 {
		return fmt.Errorf("ps: block header carries row encoding tag %d (a wire v3 fp16 or int8 body); only fp32 rows are decoded", tag)
	}
	dim := int(word)
	count := int(binary.LittleEndian.Uint32(payload[4:8]))
	if dim > maxWireDim {
		return fmt.Errorf("ps: block dimension %d out of range", dim)
	}
	if count != len(ks) {
		return fmt.Errorf("ps: block has %d rows for %d keys", count, len(ks))
	}
	if want := 8 + count*(wireRowOverhead+8*dim); len(payload) != want {
		return fmt.Errorf("ps: block body is %d bytes, want %d", len(payload), want)
	}
	b.Reset(dim, ks)
	off := 8
	for i := 0; i < count; i++ {
		b.Present[i] = payload[off] != 0
		b.Freq[i] = binary.LittleEndian.Uint32(payload[off+1 : off+5])
		off += wireRowOverhead
		w := b.WeightsRow(i)
		for j := range w {
			w[j] = math.Float32frombits(binary.LittleEndian.Uint32(payload[off : off+4]))
			off += 4
		}
		g := b.G2Row(i)
		for j := range g {
			g[j] = math.Float32frombits(binary.LittleEndian.Uint32(payload[off : off+4]))
			off += 4
		}
	}
	return nil
}

// blockPool recycles ValueBlocks across batches; see GetBlock / PutBlock.
var blockPool = sync.Pool{New: func() any { return &ValueBlock{} }}

// GetBlock returns a pooled block reset for the given dimension and keys.
func GetBlock(dim int, ks []keys.Key) *ValueBlock {
	b := blockPool.Get().(*ValueBlock)
	b.Reset(dim, ks)
	return b
}

// PutBlock returns a block to the pool. The caller must not use it afterwards.
func PutBlock(b *ValueBlock) {
	if b != nil {
		blockPool.Put(b)
	}
}
