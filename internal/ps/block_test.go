package ps

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hps/internal/embedding"
	"hps/internal/keys"
)

// Set copies v into row i and marks it present.
func (b *ValueBlock) Set(i int, v *embedding.Value) {
	copy(b.WeightsRow(i), v.Weights)
	copy(b.G2Row(i), v.G2Sum)
	b.Freq[i] = v.Freq
	b.Present[i] = true
}

func testBlock(t *testing.T, dim, n int) *ValueBlock {
	t.Helper()
	ks := make([]keys.Key, n)
	for i := range ks {
		ks[i] = keys.Key(keys.Mix64(uint64(i)))
	}
	b := NewValueBlock(dim)
	b.Reset(dim, ks)
	for i := range ks {
		if i%3 == 2 {
			continue // leave some rows absent
		}
		v := embedding.NewKeyedValue(dim, int64(dim*1000+n), uint64(i))
		v.Freq = uint32(i * 7)
		b.Set(i, v)
	}
	return b
}

func TestBlockRowsAndValues(t *testing.T) {
	b := testBlock(t, 8, 9)
	if b.Len() != 9 {
		t.Fatalf("Len = %d", b.Len())
	}
	if got := b.PresentCount(); got != 6 {
		t.Fatalf("PresentCount = %d, want 6", got)
	}
	v := b.Value(0)
	if v == nil || v.Dim() != 8 || v.Weights[0] != b.WeightsRow(0)[0] {
		t.Fatalf("Value(0) = %+v", v)
	}
	v.Weights[0] = 99
	if b.WeightsRow(0)[0] == 99 {
		t.Fatal("Value must copy, not alias")
	}
	if b.Value(2) != nil {
		t.Fatal("absent row must read as nil value")
	}
	// Rows must not be able to append into their neighbours.
	row := b.WeightsRow(0)
	row = append(row, 42)
	if b.WeightsRow(1)[0] == 42 {
		t.Fatal("row capacity bleeds into the next row")
	}
}

func TestBlockAppendGrowTruncate(t *testing.T) {
	b := NewValueBlock(4)
	b.Reset(4, nil)
	b.Grow(3)
	wCap, gCap := cap(b.Weights), cap(b.G2Sum)
	if wCap < 12 || gCap < 12 {
		t.Fatalf("Grow(3) capacity = %d/%d, want >= 12", wCap, gCap)
	}

	w := []float32{1, 2, 3, 4}
	g := []float32{5, 6, 7, 8}
	b.AppendRow(10, w, g, 3)
	if b.Len() != 1 || !b.Present[0] || b.Freq[0] != 3 || b.WeightsRow(0)[2] != 3 || b.G2Row(0)[3] != 8 {
		t.Fatalf("AppendRow row = keys %v present %v freq %v w %v g %v",
			b.Keys, b.Present, b.Freq, b.Weights, b.G2Sum)
	}

	// GrowRow appends a zeroed present row; Truncate withdraws it, and a
	// re-grown row must come back zeroed even though the storage is reused.
	i := b.GrowRow(11)
	b.WeightsRow(i)[0] = 42
	b.Truncate(i)
	if b.Len() != 1 {
		t.Fatalf("Len after Truncate = %d", b.Len())
	}
	i = b.GrowRow(12)
	if b.Keys[i] != 12 || !b.Present[i] || b.WeightsRow(i)[0] != 0 {
		t.Fatalf("re-grown row = key %v present %v w %v", b.Keys[i], b.Present[i], b.WeightsRow(i))
	}
	// GrowRowUninit rows carry no zero guarantee; once fully written they
	// read back like any other row.
	i = b.GrowRowUninit(13)
	for j := range b.WeightsRow(i) {
		b.WeightsRow(i)[j] = float32(j)
		b.G2Row(i)[j] = float32(-j)
	}
	b.Freq[i] = 9
	if b.Keys[i] != 13 || !b.Present[i] || b.WeightsRow(i)[3] != 3 || b.G2Row(i)[3] != -3 {
		t.Fatalf("uninit-grown row reads back wrong: %v / %v", b.WeightsRow(i), b.G2Row(i))
	}
	b.Truncate(i)

	// Growth within pre-sized capacity must not reallocate the slabs.
	if cap(b.Weights) != wCap || cap(b.G2Sum) != gCap {
		t.Fatalf("append within Grow capacity reallocated: %d/%d -> %d/%d",
			wCap, gCap, cap(b.Weights), cap(b.G2Sum))
	}

	// ResetUninit takes the new shape in place: the surviving row keeps its
	// contents (nothing is cleared), the new rows are the caller's to write.
	b.ResetUninit(4, []keys.Key{20, 21, 22})
	if b.Len() != 3 || b.Keys[2] != 22 || len(b.Weights) != 12 || len(b.G2Sum) != 12 ||
		len(b.Freq) != 3 || len(b.Present) != 3 || b.WeightsRow(0)[2] != 3 {
		t.Fatalf("ResetUninit shape = keys %v, %d/%d floats, freq %v, present %v, row 0 %v",
			b.Keys, len(b.Weights), len(b.G2Sum), b.Freq, b.Present, b.WeightsRow(0))
	}
	if cap(b.Weights) != wCap || cap(b.G2Sum) != gCap {
		t.Fatal("ResetUninit within capacity reallocated the slabs")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("expected AppendRow dim-mismatch panic")
		}
	}()
	b.AppendRow(13, []float32{1}, []float32{2}, 0)
}

func TestWireRowHelpersMatchAppendWire(t *testing.T) {
	b := testBlock(t, 6, 7)
	want := b.AppendWire(nil)
	got := AppendWireHeader(nil, b.Dim, b.Len())
	for i := range b.Keys {
		got = AppendWireRow(got, b.Present[i], b.Freq[i], b.WeightsRow(i), b.G2Row(i))
	}
	if len(got) != len(want) || len(got) != 8+b.Len()*(5+8*b.Dim) {
		t.Fatalf("sizes disagree: helpers %d, AppendWire %d, layout %d",
			len(got), len(want), 8+b.Len()*(5+8*b.Dim))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d differs: %d != %d", i, got[i], want[i])
		}
	}
	// And the helper-built body decodes back to the same block.
	dec := NewValueBlock(0)
	if err := dec.DecodeWire(b.Keys, got); err != nil {
		t.Fatal(err)
	}
	for i := range b.Keys {
		if dec.Present[i] != b.Present[i] || dec.Freq[i] != b.Freq[i] {
			t.Fatalf("row %d metadata differs", i)
		}
	}
}

func TestBlockResetReusesStorage(t *testing.T) {
	b := testBlock(t, 8, 16)
	w0 := &b.Weights[0]
	b.Reset(8, b.Keys[:8])
	if &b.Weights[0] != w0 {
		t.Fatal("Reset reallocated a slab that still fit")
	}
	for i := range b.Keys {
		if b.Present[i] || b.Freq[i] != 0 || b.WeightsRow(i)[0] != 0 {
			t.Fatalf("row %d not cleared by Reset", i)
		}
	}
}

func TestBlockWireRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 9} {
		src := testBlock(t, 6, n)
		payload := src.AppendWire(nil)
		if want := 8 + n*(5+8*src.Dim); len(payload) != want {
			t.Fatalf("n=%d: encoded %d bytes, want %d", n, len(payload), want)
		}
		dst := NewValueBlock(0)
		if err := dst.DecodeWire(src.Keys, payload); err != nil {
			t.Fatalf("n=%d: DecodeWire: %v", n, err)
		}
		if dst.Dim != src.Dim || dst.Len() != src.Len() {
			t.Fatalf("n=%d: decoded shape %dx%d, want %dx%d", n, dst.Len(), dst.Dim, src.Len(), src.Dim)
		}
		for i := range src.Keys {
			if dst.Present[i] != src.Present[i] || dst.Freq[i] != src.Freq[i] {
				t.Fatalf("n=%d row %d: present/freq mismatch", n, i)
			}
			for j := 0; j < src.Dim; j++ {
				if dst.WeightsRow(i)[j] != src.WeightsRow(i)[j] || dst.G2Row(i)[j] != src.G2Row(i)[j] {
					t.Fatalf("n=%d row %d element %d mismatch", n, i, j)
				}
			}
		}
	}
}

func TestBlockDecodeWireRejectsHostilePayloads(t *testing.T) {
	src := testBlock(t, 4, 3)
	good := src.AppendWire(nil)
	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:len(good)-1],
		"long":      append(append([]byte(nil), good...), 0),
		"truncated": good[:9],
	}
	for name, payload := range cases {
		dst := NewValueBlock(0)
		if err := dst.DecodeWire(src.Keys, payload); err == nil {
			t.Fatalf("%s payload decoded without error", name)
		}
	}
	// A count that disagrees with the key slice must be rejected.
	dst := NewValueBlock(0)
	if err := dst.DecodeWire(src.Keys[:2], good); err == nil {
		t.Fatal("row count / key count mismatch decoded without error")
	}
	// A huge declared dimension must be rejected before any allocation.
	huge := append([]byte(nil), good...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	if err := dst.DecodeWire(src.Keys, huge); err == nil {
		t.Fatal("absurd dimension decoded without error")
	}
	// Wire version 3 bodies tagged fp16 (1) and int8 (2) rows in the
	// dimension word's high byte; both are refused by their tag, before any
	// length check could mistake them for a short fp32 body.
	for tag, name := range map[byte]string{1: "fp16", 2: "int8"} {
		v3 := v3WireBody(src, tag)
		err := dst.DecodeWire(src.Keys, v3)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("row encoding tag %d", tag)) {
			t.Errorf("v3 %s body: DecodeWire error %v, want a refusal naming tag %d", name, err, tag)
		}
	}
}

// v3WireBody returns a wire version 3 body of blk's shape whose rows carry
// the given encoding tag (1 fp16, 2 int8): the tagged header, then zeroed
// rows of the size that encoding gave them.
func v3WireBody(blk *ValueBlock, tag byte) []byte {
	rowBytes := map[byte]int{1: 5 + 4*blk.Dim, 2: 5 + 8 + 2*blk.Dim}[tag]
	body := AppendWireHeader(nil, blk.Dim, blk.Len())
	body[3] = tag
	return append(body, make([]byte, blk.Len()*rowBytes)...)
}

func TestBlockScatterDropsUnrequestedKeys(t *testing.T) {
	dst := NewValueBlock(3)
	dst.Reset(3, []keys.Key{10, 20, 30}) // sorted, as assembled working sets are
	mk := func(w float32) *embedding.Value {
		v := embedding.NewValue(3)
		v.Weights[0] = w
		return v
	}
	// A peer answering keys it was never asked for — below, between, and
	// beyond the requested range — must not corrupt (or crash on) other rows.
	sub := NewValueBlock(3)
	sub.Reset(3, []keys.Key{5, 20, 99})
	sub.Set(0, mk(1))
	sub.Set(1, mk(2))
	sub.Set(2, mk(3))
	dst.ScatterRows(sub)
	if dst.PresentCount() != 1 || !dst.Present[1] || dst.WeightsRow(1)[0] != 2 {
		t.Fatalf("scatter applied wrong rows: %+v", dst)
	}
	// An absent row of the answer leaves its row absent.
	sub.Reset(3, []keys.Key{10, 30})
	sub.Set(1, mk(9))
	dst.ScatterRows(sub)
	if dst.PresentCount() != 2 || !dst.Present[2] || dst.WeightsRow(2)[0] != 9 {
		t.Fatalf("second scatter applied wrong rows: %+v", dst)
	}
	if dst.Present[0] {
		t.Fatal("an absent row materialized a row")
	}
}

// TestBlockScatterRowsAnyOrder checks the forward walk against a per-key
// search: sub-blocks ascending (the common case), descending, shuffled, with
// absent rows, leading absent rows and keys dst never asked for.
func TestBlockScatterRowsAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var ks []keys.Key
		for k := keys.Key(0); k < 60; k++ {
			if rng.Intn(2) == 0 {
				ks = append(ks, k)
			}
		}
		dst, want := NewValueBlock(1), NewValueBlock(1)
		dst.Reset(1, ks)
		want.Reset(1, ks)
		var sk []keys.Key
		for n := rng.Intn(40); n > 0; n-- {
			sk = append(sk, keys.Key(rng.Intn(64)))
		}
		sk = keys.Dedup(sk)
		switch trial % 3 {
		case 1:
			slices.Reverse(sk)
		case 2:
			rng.Shuffle(len(sk), func(i, j int) { sk[i], sk[j] = sk[j], sk[i] })
		}
		sub := NewValueBlock(1)
		sub.Reset(1, sk)
		for j, k := range sk {
			if rng.Intn(4) == 0 {
				continue // absent in the answer
			}
			v := embedding.NewValue(1)
			v.Weights[0] = float32(k) + 0.5
			sub.Set(j, v)
			if i, ok := want.Row(k); ok {
				want.Set(i, v)
			}
		}
		dst.ScatterRows(sub)
		if !slices.Equal(dst.Present, want.Present) || !slices.Equal(dst.Weights, want.Weights) {
			t.Fatalf("trial %d: scatter of %v into %v:\n got %v %v\nwant %v %v",
				trial, sk, ks, dst.Present, dst.Weights, want.Present, want.Weights)
		}
	}
}

func TestBlockCopyFrom(t *testing.T) {
	src := testBlock(t, 4, 5)
	dst := NewValueBlock(0)
	dst.CopyFrom(src)
	src.WeightsRow(0)[0] += 1
	if dst.WeightsRow(0)[0] == src.WeightsRow(0)[0] {
		t.Fatal("CopyFrom must deep-copy the slabs")
	}
	if dst.Dim != src.Dim || dst.Len() != src.Len() {
		t.Fatal("CopyFrom shape mismatch")
	}
}

func TestBlockPool(t *testing.T) {
	ks := []keys.Key{3, 1, 2}
	b := GetBlock(7, ks)
	if b.Dim != 7 || b.Len() != 3 || b.PresentCount() != 0 {
		t.Fatalf("GetBlock returned a dirty block: %+v", b)
	}
	b.Set(1, embedding.NewValue(7))
	PutBlock(b)
	again := GetBlock(7, ks)
	if again.PresentCount() != 0 {
		t.Fatal("pooled block not reset on reuse")
	}
	PutBlock(again)
	PutBlock(nil) // must not panic
}
