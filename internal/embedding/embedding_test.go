package embedding

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValue(t *testing.T) {
	v := NewValue(8)
	if v.Dim() != 8 || len(v.G2Sum) != 8 || v.Freq != 0 {
		t.Fatal("NewValue wrong shape")
	}
	neg := NewValue(-3)
	if neg.Dim() != 0 {
		t.Fatal("negative dim should clamp to 0")
	}
}

// TestNewKeyedValue checks the keyed initializer's contract: a pure function
// of (dim, seed, key), uniform in ±1/√(dim+1), with neither adjacent keys nor
// adjacent seeds producing related streams.
func TestNewKeyedValue(t *testing.T) {
	const dim = 8
	a, b := NewKeyedValue(dim, 7, 1234), NewKeyedValue(dim, 7, 1234)
	if !slices.Equal(a.Weights, b.Weights) {
		t.Fatal("the same (seed, key) gave different weights")
	}
	for _, g := range a.G2Sum {
		if g != 0 {
			t.Fatal("G2Sum should start at zero")
		}
	}
	// Moments over many keys: mean 0, variance scale²/3, all within the range.
	scale := 1 / math.Sqrt(dim+1)
	var sum, sumSq float64
	const keys = 20000
	for k := uint64(0); k < keys; k++ {
		for _, w := range NewKeyedValue(dim, 7, k).Weights {
			if math.Abs(float64(w)) > scale {
				t.Fatalf("key %d: weight %v outside ±%v", k, w, scale)
			}
			sum += float64(w)
			sumSq += float64(w) * float64(w)
		}
	}
	n := float64(keys * dim)
	if mean := sum / n; math.Abs(mean) > 4*scale/math.Sqrt(3*n) {
		t.Fatalf("mean weight %v, want 0 within 4 sigma", mean)
	}
	if v := sumSq / n; math.Abs(v-scale*scale/3) > 0.02*scale*scale/3 {
		t.Fatalf("weight variance %v, want %v", v, scale*scale/3)
	}
	// A neighbouring key's (or seed's) stream is not this key's shifted by a
	// position — what an unmixed splitmix64 starting state would give.
	for _, other := range []*Value{NewKeyedValue(dim, 7, 1235), NewKeyedValue(dim, 8, 1234), NewKeyedValue(dim, 7, 1233)} {
		for shift := -2; shift <= 2; shift++ {
			same := 0
			for i := range a.Weights {
				if j := i + shift; j >= 0 && j < dim && a.Weights[i] == other.Weights[j] {
					same++
				}
			}
			if same > 1 {
				t.Fatalf("%d weights equal a neighbour's at shift %d", same, shift)
			}
		}
	}
}

func TestNewKeyedValueAllocations(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { NewKeyedValue(8, 1, 99) }); allocs > 2 {
		t.Fatalf("a keyed value took %.0f allocations, want the value's own 2", allocs)
	}
}

// BenchmarkNewKeyedValue is the cost of a first reference at the cold
// workload's dimension.
func BenchmarkNewKeyedValue(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewKeyedValue(8, 1, uint64(i))
	}
}

func TestAdd(t *testing.T) {
	a := NewValue(3)
	b := NewValue(3)
	a.Weights = []float32{1, 2, 3}
	a.G2Sum = []float32{1, 1, 1}
	a.Freq = 2
	b.Weights = []float32{1, 1, 1}
	b.G2Sum = []float32{2, 2, 2}
	b.Freq = 5
	a.AddFlat(b.Weights, b.G2Sum, b.Freq)
	if a.Weights[0] != 2 || a.Weights[2] != 4 {
		t.Fatalf("AddFlat weights = %v", a.Weights)
	}
	if a.G2Sum[1] != 3 {
		t.Fatalf("AddFlat g2sum = %v", a.G2Sum)
	}
	if a.Freq != 7 {
		t.Fatalf("AddFlat freq = %d", a.Freq)
	}
}

// TestAddDimMismatchPanics pins the strict dimension contract: merging values
// of different dimensions means two tiers disagree about the model shape, and
// silently dropping elements (the old behaviour) corrupts the parameter. Both
// the too-short and too-long directions must panic, with enough context to
// identify the shapes.
func TestAddDimMismatchPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: dimension mismatch did not panic", name)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, "dimension mismatch") {
				t.Fatalf("%s: panic %q carries no context", name, msg)
			}
		}()
		fn()
	}
	a := NewValue(3)
	mustPanic("short delta", func() { a.AddFlat(make([]float32, 1), make([]float32, 1), 1) })
	mustPanic("long delta", func() { a.AddFlat(make([]float32, 5), make([]float32, 5), 1) })
	mustPanic("short accumulator", func() { a.AddFlat(make([]float32, 3), make([]float32, 2), 1) })
	// Matching dims keep working.
	a.AddFlat(make([]float32, 3), make([]float32, 3), 1)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	v := NewKeyedValue(8, 2, 7)
	v.G2Sum[3] = 0.5
	v.Freq = 42
	buf := make([]byte, EncodedSize(8))
	n := EncodeRow(buf, v.Weights, v.G2Sum, v.Freq)
	if n != len(buf) {
		t.Fatalf("EncodeRow wrote %d bytes, want %d", n, len(buf))
	}
	got := NewValue(8)
	freq, consumed, err := DecodeRow(buf, got.Weights, got.G2Sum)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != n {
		t.Fatalf("DecodeRow consumed %d, want %d", consumed, n)
	}
	if freq != 42 {
		t.Fatal("DecodeRow header mismatch")
	}
	for i := range v.Weights {
		if got.Weights[i] != v.Weights[i] || got.G2Sum[i] != v.G2Sum[i] {
			t.Fatal("DecodeRow payload mismatch")
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(weights []float32, freq uint32) bool {
		if len(weights) > 64 {
			weights = weights[:64]
		}
		buf := make([]byte, EncodedSize(len(weights)))
		EncodeRow(buf, weights, make([]float32, len(weights)), freq)
		got := NewValue(len(weights))
		gotFreq, n, err := DecodeRow(buf, got.Weights, got.G2Sum)
		if err != nil || n != len(buf) || gotFreq != freq {
			return false
		}
		for i := range weights {
			// NaN != NaN, so compare bit patterns via equality of both being NaN.
			a, b := got.Weights[i], weights[i]
			if a != b && !(a != a && b != b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	v := NewValue(8)
	if _, _, err := DecodeRow(nil, v.Weights, v.G2Sum); err == nil {
		t.Fatal("DecodeRow(nil) should fail")
	}
	if _, _, err := DecodeRow(make([]byte, 4), v.Weights, v.G2Sum); err == nil {
		t.Fatal("DecodeRow(short header) should fail")
	}
	buf := make([]byte, EncodedSize(8))
	EncodeRow(buf, v.Weights, v.G2Sum, v.Freq)
	if _, _, err := DecodeRow(buf[:len(buf)-1], v.Weights, v.G2Sum); err == nil {
		t.Fatal("DecodeRow(truncated body) should fail")
	}
	short := NewValue(4)
	if _, _, err := DecodeRow(buf, short.Weights, short.G2Sum); err == nil {
		t.Fatal("DecodeRow(other dimension) should fail")
	}
}

func TestEncodePanicsOnSmallBuffer(t *testing.T) {
	v := NewValue(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EncodeRow(make([]byte, 3), v.Weights, v.G2Sum, v.Freq)
}

func TestEncodedSize(t *testing.T) {
	if EncodedSize(0) != 8 {
		t.Fatalf("EncodedSize(0) = %d", EncodedSize(0))
	}
	if EncodedSize(8) != 8+64 {
		t.Fatalf("EncodedSize(8) = %d", EncodedSize(8))
	}
	if EncodedSize(-1) != 8 {
		t.Fatalf("EncodedSize(-1) = %d", EncodedSize(-1))
	}
}

func TestTable(t *testing.T) {
	tb := NewTable(4)
	if tb.Len() != 0 {
		t.Fatal("empty table")
	}
	if tb.Get(1) != nil {
		t.Fatal("Get on empty should be nil")
	}
	v := NewValue(4)
	tb.Put(1, v)
	if tb.Get(1) != v || tb.Len() != 1 {
		t.Fatal("Put failed")
	}
	v.Weights[0] = 5
	if tb.Get(1).Weights[0] != 5 {
		t.Fatal("table must store pointer")
	}
	tb.Put(2, NewValue(4))
	if tb.Len() != 2 {
		t.Fatal("Len wrong")
	}
	count := 0
	tb.Range(func(k uint64, v *Value) bool {
		count++
		return true
	})
	if count != 2 {
		t.Fatal("Range should visit all entries")
	}
	count = 0
	tb.Range(func(k uint64, v *Value) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatal("Range should stop when fn returns false")
	}
}
