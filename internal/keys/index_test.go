package keys

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkIndex verifies a built index against its definition: Unique is Dedup
// of the occurrences and every occurrence's row addresses its key.
func checkIndex(t *testing.T, x *Index, occ []Key) {
	t.Helper()
	want := Dedup(slices.Clone(occ))
	if !slices.Equal(x.Unique, want) {
		t.Fatalf("Unique = %v, want %v", x.Unique, want)
	}
	if len(x.Rows) != len(occ) {
		t.Fatalf("%d rows for %d occurrences", len(x.Rows), len(occ))
	}
	for i, k := range occ {
		if x.Unique[x.Rows[i]] != k {
			t.Fatalf("occurrence %d is key %d, its row %d holds %d", i, k, x.Rows[i], x.Unique[x.Rows[i]])
		}
	}
}

func buildIndex(occ []Key) *Index {
	var b IndexBuilder
	var x Index
	b.Add(occ)
	b.Build(&x)
	return &x
}

func TestIndexBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(n int, mask uint64) []Key {
		out := make([]Key, n)
		for i := range out {
			out[i] = Key(rng.Uint64() & mask)
		}
		return out
	}
	prefixed := random(1000, 0xfff) // bytes that are equal in every key are skipped
	for i := range prefixed {
		prefixed[i] |= 0xabcdef0000000000
	}
	cases := map[string][]Key{
		"empty":          nil,
		"one":            {7},
		"all equal":      {9, 9, 9, 9},
		"sorted":         {1, 2, 3, 500, 70000},
		"descending":     {1 << 63, 1 << 40, 65536, 255, 0},
		"one byte":       random(300, 0xff),
		"two bytes":      random(3000, 0xffff),
		"sparse bytes":   random(3000, 0xff0000ff00),       // bytes 1 and 4 only
		"high bytes":     random(3000, 0xffff000000000000), // the sort's last two passes
		"all 64 bits":    random(5000, ^uint64(0)),         // eight passes
		"few of many":    random(5000, 0x3f),               // heavy duplication
		"common prefix":  prefixed,
		"max and zero":   {^Key(0), 0, ^Key(0), 1, 0},
		"40-bit uniform": random(4000, 1<<40-1),
	}
	// One builder and one index across every case: storage is reused.
	var b IndexBuilder
	var x Index
	for name, occ := range cases {
		t.Run(name, func(t *testing.T) {
			b.Reset()
			// Added in two parts, as a batch adds example by example.
			b.Add(occ[:len(occ)/2])
			b.Add(occ[len(occ)/2:])
			b.Build(&x)
			checkIndex(t, &x, occ)
		})
	}
}

func TestIndexSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	occ := make([]Key, 2000)
	for i := range occ {
		occ[i] = Key(rng.Intn(700))
	}
	x := buildIndex(occ)
	var ks []Key
	var local []int32
	for _, r := range [][2]int{{0, 2000}, {0, 0}, {2000, 2000}, {0, 1}, {1999, 2000}, {300, 900}, {900, 2000}} {
		lo, hi := r[0], r[1]
		ks, local = x.Subset(lo, hi, ks, local)
		if want := Dedup(slices.Clone(occ[lo:hi])); !slices.Equal(ks, want) {
			t.Fatalf("Subset(%d, %d) = %v, want %v", lo, hi, ks, want)
		}
		for i := lo; i < hi; i++ {
			if ks[local[x.Rows[i]]] != occ[i] {
				t.Fatalf("Subset(%d, %d): occurrence %d is key %d, addressed %d", lo, hi, i, occ[i], ks[local[x.Rows[i]]])
			}
		}
		touched := 0
		for _, l := range local {
			if l >= 0 {
				touched++
			}
		}
		if touched != len(ks) {
			t.Fatalf("Subset(%d, %d): %d rows marked for %d keys", lo, hi, touched, len(ks))
		}
	}
}

func TestIndexSteadyStateAllocatesNothing(t *testing.T) {
	occ := benchOccurrences(12800, 60000)
	var b IndexBuilder
	var x Index
	var ks []Key
	var local []int32
	run := func() {
		b.Reset()
		b.Add(occ)
		b.Build(&x)
		ks, local = x.Subset(0, len(occ)/2, ks, local)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("rebuilding an index allocated %.1f times", allocs)
	}
}

// benchOccurrences draws n zipfian key occurrences over a universe the way
// the dataset generator does.
func benchOccurrences(n int, universe uint64) []Key {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, universe-1)
	out := make([]Key, n)
	for i := range out {
		out[i] = Key(Mix64(zipf.Uint64()) % universe)
	}
	return out
}

var indexShapes = []struct {
	name     string
	n        int
	universe uint64
}{
	{"cold", 256 * 50, 60000}, // bench train_local_cold: two key bytes vary
	{"tiny", 256 * 20, 20000},
	{"wide", 256 * 50, 1 << 40}, // five bytes vary
}

func BenchmarkIndexBuild(b *testing.B) {
	for _, s := range indexShapes {
		b.Run(s.name, func(b *testing.B) {
			occ := benchOccurrences(s.n, s.universe)
			var sc IndexBuilder
			var x Index
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.Reset()
				sc.Add(occ)
				sc.Build(&x)
			}
			b.ReportMetric(float64(len(x.Unique))/float64(len(occ)), "unique-share")
		})
	}
}

func BenchmarkIndexSubset(b *testing.B) {
	for _, gpus := range []int{1, 2} {
		b.Run(fmt.Sprintf("cold/gpus=%d", gpus), func(b *testing.B) {
			occ := benchOccurrences(256*50, 60000)
			x := buildIndex(occ)
			var ks []Key
			var local []int32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ks, local = x.Subset(0, len(occ)/gpus, ks, local)
			}
		})
	}
}
