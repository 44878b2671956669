package dataset

import (
	"fmt"
	"slices"
	"testing"

	"hps/internal/keys"
)

// checkBatchIndex verifies a batch's index against the functions it replaces
// on the batch path: Unique against Batch.Keys, Rows against the feature
// occurrences, and — for 1, 2 and 3 GPUs, following Batch.Shard's split — each
// shard's marked key set against keys.Dedup of the shard's features, with a
// row map that addresses the same keys.
func checkBatchIndex(t *testing.T, b *Batch, sc *keys.IndexBuilder, x *keys.Index) {
	t.Helper()
	b.IndexInto(sc, x)
	if want := b.Keys(); !slices.Equal(x.Unique, want) {
		t.Fatalf("Unique has %d keys, Batch.Keys %d: %v vs %v", len(x.Unique), len(want), x.Unique, want)
	}
	occ := 0
	for _, ex := range b.Examples {
		for _, k := range ex.Features {
			if got := x.Unique[x.Rows[occ]]; got != k {
				t.Fatalf("occurrence %d is key %d, its row holds %d", occ, k, got)
			}
			occ++
		}
	}
	if occ != len(x.Rows) {
		t.Fatalf("%d rows for %d occurrences", len(x.Rows), occ)
	}
	var ks []keys.Key
	var local []int32
	for gpus := 1; gpus <= 3; gpus++ {
		first := 0
		for g, shard := range b.Shard(gpus) {
			if lo, hi := ShardBounds(b.Len(), gpus, g); hi-lo != shard.Len() ||
				(shard.Len() > 0 && &b.Examples[lo] != &shard.Examples[0]) {
				t.Fatalf("ShardBounds(%d, %d, %d) = [%d, %d), Batch.Shard holds %d examples", b.Len(), gpus, g, lo, hi, shard.Len())
			}
			var feats []keys.Key
			for _, ex := range shard.Examples {
				feats = append(feats, ex.Features...)
			}
			end := first + len(feats)
			ks, local = x.Subset(first, end, ks, local)
			if want := keys.Dedup(slices.Clone(feats)); !slices.Equal(ks, want) {
				t.Fatalf("%d gpus, shard %d: marked key set %v, Dedup %v", gpus, g, ks, want)
			}
			for i, k := range feats {
				if got := ks[local[x.Rows[first+i]]]; got != k {
					t.Fatalf("%d gpus, shard %d: feature %d is key %d, row map addresses %d", gpus, g, i, k, got)
				}
			}
			first = end
		}
		if first != len(x.Rows) {
			t.Fatalf("%d gpus: shards cover %d of %d occurrences", gpus, first, len(x.Rows))
		}
	}
}

func TestBatchIndexProperty(t *testing.T) {
	// Shared: every batch rebuilds the index in place with the same scratch.
	var sc keys.IndexBuilder
	var x keys.Index
	for _, u := range []struct {
		features int64
		nnz      int
	}{{60_000, 50}, {20_000, 20}, {1 << 40, 30}} {
		g := NewGenerator(Config{NumFeatures: u.features, NonZerosPerExample: u.nnz}, 5)
		for _, n := range []int{256, 1, 2, 7, 64} {
			checkBatchIndex(t, g.NextBatch(n), &sc, &x)
		}
	}
}

func TestBatchIndexHandBuilt(t *testing.T) {
	ex := func(ks ...keys.Key) Example { return Example{Features: ks} }
	var sc keys.IndexBuilder
	var x keys.Index
	for name, b := range map[string]*Batch{
		"empty batch":           {},
		"one example":           {Examples: []Example{ex(9, 3, 1<<50)}},
		"two for three gpus":    {Examples: []Example{ex(4, 5), ex(5, 6)}}, // an empty trailing shard
		"repeat in an example":  {Examples: []Example{ex(7, 7, 2, 7), ex(2, 8)}},
		"all examples the same": {Examples: []Example{ex(3, 1, 2), ex(3, 1, 2), ex(3, 1, 2), ex(3, 1, 2)}},
		"an empty example":      {Examples: []Example{ex(1), ex(), ex(0, 1)}},
		"uneven lengths":        {Examples: []Example{ex(1, 2, 3, 4, 5), ex(5), ex(^keys.Key(0), 0), ex(2, 2), ex(9)}},
	} {
		t.Run(name, func(t *testing.T) { checkBatchIndex(t, b, &sc, &x) })
	}
}

func TestBatchIndexAllocatesNothingInSteadyState(t *testing.T) {
	b := NewGenerator(Config{NumFeatures: 60_000, NonZerosPerExample: 50}, 1).NextBatch(256)
	var sc keys.IndexBuilder
	var x keys.Index
	b.IndexInto(&sc, &x)
	if allocs := testing.AllocsPerRun(20, func() { b.IndexInto(&sc, &x) }); allocs != 0 {
		t.Fatalf("re-indexing a batch allocated %.1f times", allocs)
	}
}

// benchShapes are the batch shapes of the bench workloads: train_local_cold
// and the tiny model of train_tcp / serve_mixed.
var benchShapes = []struct {
	name string
	cfg  Config
}{
	{"cold", Config{NumFeatures: 60_000, NonZerosPerExample: 50}},
	{"tiny", Config{NumFeatures: 20_000, NonZerosPerExample: 20}},
}

// BenchmarkBatchKeys is the batch path's key partition before the index: one
// of the two sorts a batch paid (the shard sorted its features again), with
// no inverse.
func BenchmarkBatchKeys(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			batch := NewGenerator(s.cfg, 1).NextBatch(256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch.Keys()
			}
		})
	}
}

func BenchmarkBatchIndex(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			batch := NewGenerator(s.cfg, 1).NextBatch(256)
			var sc keys.IndexBuilder
			var x keys.Index
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch.IndexInto(&sc, &x)
			}
			b.ReportMetric(float64(len(x.Unique))/float64(len(x.Rows)), "unique-share")
		})
	}
}

func BenchmarkNextBatch(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			g := NewGenerator(s.cfg, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.NextBatch(256)
			}
		})
	}
}

func BenchmarkNewGenerator(b *testing.B) {
	for _, n := range []int64{1000, 60_000, 100_000_000_000} {
		b.Run(fmt.Sprintf("features=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewGenerator(Config{NumFeatures: n, NonZerosPerExample: 50}, int64(i))
			}
		})
	}
}
