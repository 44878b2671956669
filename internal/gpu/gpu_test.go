package gpu

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/simtime"
)

func TestHashTableInsertGet(t *testing.T) {
	ht := NewHashTable(256, 4)
	v := embedding.NewValue(4)
	v.Weights[0] = 7
	if err := ht.Insert(42, v); err != nil {
		t.Fatal(err)
	}
	got, ok := ht.Get(42)
	if !ok || got.Weights[0] != 7 {
		t.Fatal("Get after Insert failed")
	}
	if _, ok := ht.Get(43); ok {
		t.Fatal("absent key should miss")
	}
	if ht.Len() != 1 {
		t.Fatalf("len = %d", ht.Len())
	}
	// Replacing a value must not grow the table.
	v2 := embedding.NewValue(4)
	if err := ht.Insert(42, v2); err != nil {
		t.Fatal(err)
	}
	if ht.Len() != 1 {
		t.Fatal("replacement grew the table")
	}
}

func TestHashTableCapacityAndFull(t *testing.T) {
	ht := NewHashTable(10, 2) // rounds up to tableShards slots minimum
	if ht.Capacity() < 10 {
		t.Fatal("capacity must be at least requested")
	}
	if ht.Capacity()%tableShards != 0 {
		t.Fatal("capacity must be a multiple of the shard count")
	}
	// Fill far beyond a single shard's slots to force ErrTableFull.
	full := false
	for i := 0; i < ht.Capacity()*4 && !full; i++ {
		if err := ht.Insert(keys.Key(i), embedding.NewValue(2)); err != nil {
			if !errors.Is(err, ErrTableFull) {
				t.Fatalf("unexpected error %v", err)
			}
			full = true
		}
	}
	if !full {
		t.Fatal("expected the table to eventually fill")
	}
	if ht.Len() > ht.Capacity() {
		t.Fatal("len must never exceed capacity")
	}
}

func TestHashTableAccumulate(t *testing.T) {
	ht := NewHashTable(64, 3)
	v := embedding.NewValue(3)
	v.Weights = []float32{1, 1, 1}
	ht.Insert(7, v)
	if err := ht.Accumulate(7, []float32{0.5, -1, 2}); err != nil {
		t.Fatal(err)
	}
	got, _ := ht.Get(7)
	if got.Weights[0] != 1.5 || got.Weights[1] != 0 || got.Weights[2] != 3 {
		t.Fatalf("accumulate result = %v", got.Weights)
	}
	if got.Freq != 1 {
		t.Fatalf("freq = %d", got.Freq)
	}
	if err := ht.Accumulate(999, []float32{1}); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("want ErrKeyNotFound, got %v", err)
	}
	// Short delta is tolerated.
	if err := ht.Accumulate(7, []float32{1}); err != nil {
		t.Fatal(err)
	}
}

func TestHashTableUpdate(t *testing.T) {
	ht := NewHashTable(64, 2)
	ht.Insert(1, embedding.NewValue(2))
	err := ht.Update(1, func(v *embedding.Value) { v.Weights[0] = 9 })
	if err != nil {
		t.Fatal(err)
	}
	got, _ := ht.Get(1)
	if got.Weights[0] != 9 {
		t.Fatal("update not applied")
	}
	if err := ht.Update(2, func(v *embedding.Value) {}); !errors.Is(err, ErrKeyNotFound) {
		t.Fatal("update of absent key should fail")
	}
}

func TestHashTableRangeKeysClear(t *testing.T) {
	ht := NewHashTable(256, 2)
	for i := 0; i < 50; i++ {
		if err := ht.Insert(keys.Key(i), embedding.NewValue(2)); err != nil {
			t.Fatal(err)
		}
	}
	if len(ht.Keys()) != 50 {
		t.Fatal("Keys wrong length")
	}
	count := 0
	ht.Range(func(k keys.Key, v *embedding.Value) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatal("Range should stop early")
	}
	ht.Clear()
	if ht.Len() != 0 || len(ht.Keys()) != 0 {
		t.Fatal("Clear failed")
	}
	// Reusable after Clear.
	if err := ht.Insert(1, embedding.NewValue(2)); err != nil {
		t.Fatal(err)
	}
	if ht.String() == "" {
		t.Fatal("String empty")
	}
}

func TestHashTableInsertGetProperty(t *testing.T) {
	f := func(raw []uint64) bool {
		ht := NewHashTable(4096, 2)
		want := make(map[keys.Key]float32)
		for i, r := range raw {
			if i >= 1000 {
				break
			}
			k := keys.Key(r)
			v := embedding.NewValue(2)
			v.Weights[0] = float32(i)
			if err := ht.Insert(k, v); err != nil {
				// Full shard is acceptable; skip.
				continue
			}
			want[k] = float32(i)
		}
		for k, w := range want {
			got, ok := ht.Get(k)
			if !ok || got.Weights[0] != w {
				return false
			}
		}
		return ht.Len() == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHashTableConcurrentAccumulate(t *testing.T) {
	ht := NewHashTable(1024, 1)
	const nKeys = 100
	for i := 0; i < nKeys; i++ {
		ht.Insert(keys.Key(i), embedding.NewValue(1))
	}
	var wg sync.WaitGroup
	const workers = 8
	const perWorker = 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := ht.Accumulate(keys.Key(i%nKeys), []float32{1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var total float32
	ht.Range(func(k keys.Key, v *embedding.Value) bool {
		total += v.Weights[0]
		return true
	})
	if total != workers*perWorker {
		t.Fatalf("lost updates: total = %v, want %d", total, workers*perWorker)
	}
}

func TestBytesPerEntry(t *testing.T) {
	if BytesPerEntry(8) != int64(embedding.EncodedSize(8))+16 {
		t.Fatal("BytesPerEntry formula changed unexpectedly")
	}
	ht := NewHashTable(128, 8)
	if ht.SizeBytes() != int64(ht.Capacity())*BytesPerEntry(8) {
		t.Fatal("SizeBytes mismatch")
	}
}

func TestDeviceAllocFree(t *testing.T) {
	d := NewDevice(0, 1, hw.GPU{HBMBytes: 1000}, nil)
	if d.HBMBytes() != 1000 || d.HBMFree() != 1000 {
		t.Fatal("initial HBM wrong")
	}
	if err := d.Alloc(600); err != nil {
		t.Fatal(err)
	}
	if d.HBMUsed() != 600 || d.HBMFree() != 400 {
		t.Fatal("accounting wrong")
	}
	if err := d.Alloc(500); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	if err := d.Alloc(-1); err == nil {
		t.Fatal("negative alloc should fail")
	}
	d.Free(600)
	if d.HBMUsed() != 0 {
		t.Fatal("free failed")
	}
	d.Free(100) // over-free clamps at zero
	if d.HBMUsed() != 0 {
		t.Fatal("over-free should clamp")
	}
	d.Free(-5) // ignored
	if d.String() != "gpu0.1" {
		t.Fatalf("String = %s", d.String())
	}
	if d.Profile().HBMBytes != 1000 {
		t.Fatal("profile accessor")
	}
}

func TestDeviceUnlimitedHBM(t *testing.T) {
	d := NewDevice(0, 0, hw.GPU{}, nil)
	if err := d.Alloc(1 << 40); err != nil {
		t.Fatal("zero-HBM profile should mean unlimited for tests")
	}
}

func TestDeviceCreateHashTable(t *testing.T) {
	profile := hw.GPU{HBMBytes: BytesPerEntry(4) * 4096}
	d := NewDevice(0, 0, profile, nil)
	ht, err := d.CreateHashTable(1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Table() != ht {
		t.Fatal("Table accessor wrong")
	}
	if d.HBMUsed() != ht.SizeBytes() {
		t.Fatal("table allocation not charged to HBM")
	}
	// A table that cannot fit must fail and leave no allocation behind.
	if _, err := d.CreateHashTable(100000, 4); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	if d.Table() != nil {
		t.Fatal("failed creation should clear the previous table")
	}
	if d.HBMUsed() != 0 {
		t.Fatalf("HBM leak: %d", d.HBMUsed())
	}
	// Recreate and destroy.
	if _, err := d.CreateHashTable(512, 4); err != nil {
		t.Fatal(err)
	}
	d.DestroyHashTable()
	if d.HBMUsed() != 0 || d.Table() != nil {
		t.Fatal("destroy failed")
	}
}

func TestDeviceCharging(t *testing.T) {
	clock := simtime.NewClock()
	profile := hw.GPU{FLOPS: 1e9, HBMBandwidthBytesPerSec: 1e9, KernelLaunch: time.Microsecond}
	d := NewDevice(0, 0, profile, clock)
	d.ChargeCompute(1e9)
	if got := clock.Total(simtime.ResourceGPU); got < time.Second {
		t.Fatalf("compute charge = %v", got)
	}
	d.ChargeMemory(1e9)
	if got := clock.Total(simtime.ResourceHBM); got < time.Second {
		t.Fatalf("memory charge = %v", got)
	}
	// Nil clock must not panic.
	d2 := NewDevice(0, 0, profile, nil)
	d2.ChargeCompute(1)
	d2.ChargeMemory(1)
}

func TestDeviceConcurrentAlloc(t *testing.T) {
	d := NewDevice(0, 0, hw.GPU{HBMBytes: 1 << 20}, nil)
	var wg sync.WaitGroup
	var allocErrs int64
	var mu sync.Mutex
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := d.Alloc(1024); err != nil {
					mu.Lock()
					allocErrs++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if d.HBMUsed() > d.HBMBytes() {
		t.Fatalf("HBM overcommitted: %d > %d", d.HBMUsed(), d.HBMBytes())
	}
	// 16*100 KiB requested vs 1 MiB available: some must fail.
	if allocErrs == 0 {
		t.Fatal("expected some allocations to fail")
	}
	_ = fmt.Sprintf("%v", d)
}

func TestHashTableDelete(t *testing.T) {
	table := NewHashTable(100, 4)
	for i := 0; i < 50; i++ {
		if err := table.Insert(keys.Key(i), embedding.NewValue(4)); err != nil {
			t.Fatal(err)
		}
	}
	if !table.Delete(7) {
		t.Fatal("delete of present key should succeed")
	}
	if table.Delete(7) {
		t.Fatal("second delete should report absent")
	}
	if table.Len() != 49 {
		t.Fatalf("len = %d after delete", table.Len())
	}
	if _, ok := table.Get(7); ok {
		t.Fatal("deleted key still readable")
	}
	// Every other key must remain reachable: the tombstone may sit in the
	// middle of their probe sequences.
	for i := 0; i < 50; i++ {
		if i == 7 {
			continue
		}
		if _, ok := table.Get(keys.Key(i)); !ok {
			t.Fatalf("key %d unreachable after unrelated delete", i)
		}
	}
	// The tombstoned slot is reusable.
	if err := table.Insert(7, embedding.NewValue(4)); err != nil {
		t.Fatal(err)
	}
	if _, ok := table.Get(7); !ok {
		t.Fatal("reinserted key unreachable")
	}
	if table.Len() != 50 {
		t.Fatalf("len = %d after reinsert", table.Len())
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestBatchVisitMissingKey is the missing-key contract of GatherBatch and
// UpdateBatch, which share one implementation: every stored key of the
// request is visited exactly once (under its shard's lock), missing keys are
// skipped, and ok=false reports one of them. Neither call allocates.
func TestBatchVisitMissingKey(t *testing.T) {
	for _, op := range []struct {
		name  string
		visit func(*HashTable, []keys.Key, func(int, *embedding.Value)) (keys.Key, bool)
	}{
		{"GatherBatch", (*HashTable).GatherBatch},
		{"UpdateBatch", (*HashTable).UpdateBatch},
	} {
		t.Run(op.name, func(t *testing.T) {
			ht := NewHashTable(256, 2)
			for i := 0; i < 100; i++ {
				v := embedding.NewValue(2)
				v.Weights[0] = float32(i)
				if err := ht.Insert(keys.Key(i), v); err != nil {
					t.Fatal(err)
				}
			}
			req := []keys.Key{5, 1000, 7, 2000, 9, 99}
			visits := make([]int, len(req))
			missing, ok := op.visit(ht, req, func(i int, v *embedding.Value) {
				visits[i]++
				if v.Weights[0] != float32(req[i]) {
					t.Errorf("request %d (key %d) visited key %v's value", i, req[i], v.Weights[0])
				}
			})
			if ok || (missing != 1000 && missing != 2000) {
				t.Fatalf("(missing, ok) = (%d, %v), want one of 1000/2000 and false", missing, ok)
			}
			for i, n := range visits {
				want := 1
				if req[i] >= 1000 {
					want = 0
				}
				if n != want {
					t.Fatalf("key %d visited %d times, want %d", req[i], n, want)
				}
			}
			if _, ok := op.visit(ht, req[:1], func(int, *embedding.Value) {}); !ok {
				t.Fatal("an all-present request reported a missing key")
			}
			present := []keys.Key{3, 1, 4, 15, 92, 65}
			if raceEnabled {
				return
			}
			runtime.GC() // counted from an empty pool, not one a collection empties midway
			if a := testing.AllocsPerRun(100, func() { op.visit(ht, present, func(int, *embedding.Value) {}) }); a != 0 {
				t.Fatalf("%s allocates %v per call", op.name, a)
			}
		})
	}
}

// TestUpdateBatchWritesInPlace checks that UpdateBatch's visits modify the
// stored values, once per request row, including a key requested twice.
func TestUpdateBatchWritesInPlace(t *testing.T) {
	ht := NewHashTable(512, 1)
	for i := 0; i < 300; i++ {
		ht.Insert(keys.Key(i), embedding.NewValue(1))
	}
	req := []keys.Key{1, 2, 299, 2}
	if _, ok := ht.UpdateBatch(req, func(i int, v *embedding.Value) { v.Weights[0] += float32(i + 1) }); !ok {
		t.Fatal("all keys are present")
	}
	for k, want := range map[keys.Key]float32{1: 1, 2: 2 + 4, 299: 3, 3: 0} {
		if got, _ := ht.Get(k); got.Weights[0] != want {
			t.Fatalf("key %d = %v, want %v", k, got.Weights[0], want)
		}
	}
}

// BenchmarkTableUpdate compares one mini-batch commit's worth of updates
// (2,048 keys, dim 16) taken key by key against UpdateBatch, which takes each
// of the 64 shard locks once.
func BenchmarkTableUpdate(b *testing.B) {
	const n, dim = 2048, 16
	ht := NewHashTable(n, dim)
	ks := make([]keys.Key, n)
	for i := range ks {
		ks[i] = keys.Key(keys.Mix64(uint64(i)))
		ht.Insert(ks[i], embedding.NewValue(dim))
	}
	bump := func(v *embedding.Value) { v.Weights[0]++ }
	b.Run("per-key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, k := range ks {
				ht.Update(k, bump)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ht.UpdateBatch(ks, func(_ int, v *embedding.Value) { bump(v) })
		}
	})
}
