// Package embedding defines the sparse-parameter value layout used by every
// tier of the hierarchical parameter server.
//
// Each sparse feature key maps to a Value: an embedding vector, the Adagrad
// accumulator used by the optimizer, and a show-count used by the MEM-PS
// cache and the SSD-PS compaction heuristics. Values have a fixed on-disk
// size for a given dimension, which is what lets the SSD-PS pack them into
// block-aligned parameter files (Appendix E: "the values have a known fixed
// length, the serialized bucket on SSD exactly fits in an SSD block").
package embedding

import (
	"encoding/binary"
	"fmt"
	"math"

	"hps/internal/keys"
)

// Value is the trainable state attached to a single sparse feature key.
type Value struct {
	// Weights is the embedding vector.
	Weights []float32
	// G2Sum is the per-element Adagrad accumulator.
	G2Sum []float32
	// Freq counts how many examples have referenced this feature; it informs
	// cache retention and compaction.
	Freq uint32
}

// NewValue returns a zero-initialized value of the given embedding dimension.
func NewValue(dim int) *Value {
	if dim < 0 {
		dim = 0
	}
	// One backing array for both rows: a value is two allocations, not three.
	// The capacity of Weights stops at its length, so an append never runs
	// into G2Sum.
	rows := make([]float32, 2*dim)
	return &Value{Weights: rows[:dim:dim], G2Sum: rows[dim:]}
}

// NewKeyedValue returns the deterministic initial value of a feature key
// under the given seed: the same (seed, key) pair always produces the same
// weights — uniform in ±1/√(dim+1) — regardless of the node or the order in
// which keys are first encountered. A restarted or restored parameter server
// therefore re-initializes a key it never flushed exactly as the original
// process would have, which is what lets a resumed training run reproduce a
// straight one bit for bit.
//
// The weights are consecutive outputs of a splitmix64 stream whose starting
// state is the mixed (seed, key) pair: a first reference costs a few
// multiplies per weight, where seeding a math/rand source cost 607 words of
// state per key. Mixing the pair first matters: adjacent keys' raw states
// differ by the stream's own increment, so unmixed their streams would be
// shifted copies of each other.
func NewKeyedValue(dim int, seed int64, key uint64) *Value {
	v := NewValue(dim)
	InitKeyed(v.Weights, seed, key)
	return v
}

// InitKeyed writes the initial weights NewKeyedValue gives (seed, key) into
// w, whose length is the dimension; the accumulator and frequency of a new
// value are zero.
func InitKeyed(w []float32, seed int64, key uint64) {
	scale := float32(1.0 / math.Sqrt(float64(len(w))+1))
	const increment = 0x9E3779B97F4A7C15
	s := keys.Mix64(uint64(seed) ^ (key+1)*increment)
	for i := range w {
		// The top 24 bits of an output make a float32 in [0, 1) exactly.
		u := float32(keys.Mix64(s)>>40) / (1 << 24)
		w[i] = (u*2 - 1) * scale
		s += increment
	}
}

// Dim returns the embedding dimension.
func (v *Value) Dim() int { return len(v.Weights) }

// AddFlat accumulates raw weight and accumulator rows (the ValueBlock
// layout) and a frequency into v: the plain statement of how a push merges
// into a parameter, which the tests hold the tiers' slab merges against. The
// dimensions must match exactly: a mismatch means two tiers disagree about
// the model shape, and silently dropping or skipping elements would corrupt
// the parameter, so AddFlat panics with context instead.
func (v *Value) AddFlat(weights, g2sum []float32, freq uint32) {
	if len(weights) != len(v.Weights) || len(g2sum) != len(v.G2Sum) {
		panic(fmt.Sprintf("embedding: Add dimension mismatch: delta %d/%d into value %d/%d",
			len(weights), len(g2sum), len(v.Weights), len(v.G2Sum)))
	}
	// Reslicing to the delta's length lets the compiler drop the per-element
	// bounds checks in these hot loops (the guard above proved the lengths
	// match, but the prove pass cannot carry that through the field loads).
	vw := v.Weights[:len(weights)]
	for i, w := range weights {
		vw[i] += w
	}
	vg := v.G2Sum[:len(g2sum)]
	for i, g := range g2sum {
		vg[i] += g
	}
	v.Freq += freq
}

// EncodedSize returns the number of bytes EncodeRow produces for a value of
// the given dimension: 4 bytes of dimension, 4 bytes of frequency, then two
// float32 arrays.
func EncodedSize(dim int) int {
	if dim < 0 {
		dim = 0
	}
	return 8 + 8*dim
}

// EncodeRow serializes raw weight and accumulator rows of one length (the
// ValueBlock layout) and their frequency into buf and returns the number of
// bytes written. buf must have at least EncodedSize(len(weights)) bytes;
// EncodeRow panics otherwise.
func EncodeRow(buf []byte, weights, g2sum []float32, freq uint32) int {
	need := EncodedSize(len(weights))
	if len(buf) < need || len(g2sum) != len(weights) {
		panic(fmt.Sprintf("embedding: Encode %d/%d floats into %d bytes, need %d", len(weights), len(g2sum), len(buf), need))
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(weights)))
	binary.LittleEndian.PutUint32(buf[4:8], freq)
	off := 8
	for _, w := range weights {
		binary.LittleEndian.PutUint32(buf[off:off+4], math.Float32bits(w))
		off += 4
	}
	for _, g := range g2sum {
		binary.LittleEndian.PutUint32(buf[off:off+4], math.Float32bits(g))
		off += 4
	}
	return off
}

// DecodeRow parses an encoded value from buf straight into the weight and
// accumulator rows, whose length must be the encoded dimension, and returns
// its frequency and the number of bytes consumed. It returns an error if buf
// is truncated or holds another dimension.
func DecodeRow(buf []byte, weights, g2sum []float32) (uint32, int, error) {
	if len(buf) < 8 {
		return 0, 0, fmt.Errorf("embedding: short header: %d bytes", len(buf))
	}
	dim := int(binary.LittleEndian.Uint32(buf[0:4]))
	if dim != len(weights) || dim != len(g2sum) {
		return 0, 0, fmt.Errorf("embedding: dimension %d, the row has %d", dim, len(weights))
	}
	need := EncodedSize(dim)
	if len(buf) < need {
		return 0, 0, fmt.Errorf("embedding: short body: have %d bytes, need %d", len(buf), need)
	}
	freq := binary.LittleEndian.Uint32(buf[4:8])
	off := 8
	for i := range weights {
		weights[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off : off+4]))
		off += 4
	}
	for i := range g2sum {
		g2sum[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off : off+4]))
		off += 4
	}
	return freq, off, nil
}

// Table is a simple in-memory map from key to value. It is the building block
// for the MEM-PS cache backing store and for test fixtures; it is not safe
// for concurrent use.
type Table struct {
	Dim    int
	values map[uint64]*Value
}

// NewTable returns an empty table for embeddings of the given dimension.
func NewTable(dim int) *Table {
	return &Table{Dim: dim, values: make(map[uint64]*Value)}
}

// Get returns the value for key k, or nil if absent.
func (t *Table) Get(k uint64) *Value { return t.values[k] }

// Put stores v under k, replacing any existing value.
func (t *Table) Put(k uint64, v *Value) { t.values[k] = v }

// Len returns the number of stored values.
func (t *Table) Len() int { return len(t.values) }

// Range calls fn for every (key, value) pair until fn returns false.
func (t *Table) Range(fn func(k uint64, v *Value) bool) {
	for k, v := range t.values {
		if !fn(k, v) {
			return
		}
	}
}
