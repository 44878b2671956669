package gpu

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"hps/internal/embedding"
	"hps/internal/hw"
)

func TestBytesPerEntry(t *testing.T) {
	if BytesPerEntry(8) != int64(embedding.EncodedSize(8))+16 {
		t.Fatal("BytesPerEntry formula changed unexpectedly")
	}
}

func TestDeviceAllocFree(t *testing.T) {
	d := NewDevice(0, 1, hw.GPU{HBMBytes: 1000})
	if d.profile.HBMBytes != 1000 || d.hbmUsed != 0 {
		t.Fatal("initial HBM wrong")
	}
	if err := d.Alloc(600); err != nil {
		t.Fatal(err)
	}
	if d.hbmUsed != 600 {
		t.Fatal("accounting wrong")
	}
	if err := d.Alloc(500); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	if err := d.Alloc(-1); err == nil {
		t.Fatal("negative alloc should fail")
	}
	d.Free(600)
	if d.hbmUsed != 0 {
		t.Fatal("free failed")
	}
	d.Free(100) // over-free clamps at zero
	if d.hbmUsed != 0 {
		t.Fatal("over-free should clamp")
	}
	d.Free(-5) // ignored
	if d.String() != "gpu0.1" {
		t.Fatalf("String = %s", d.String())
	}
}

func TestDeviceUnlimitedHBM(t *testing.T) {
	d := NewDevice(0, 0, hw.GPU{})
	if err := d.Alloc(1 << 40); err != nil {
		t.Fatal("zero-HBM profile should mean unlimited for tests")
	}
}

func TestDeviceConcurrentAlloc(t *testing.T) {
	d := NewDevice(0, 0, hw.GPU{HBMBytes: 1 << 20})
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
	if d.hbmUsed > d.profile.HBMBytes {
		t.Fatalf("HBM overcommitted: %d > %d", d.hbmUsed, d.profile.HBMBytes)
	}
	// 16*100 KiB requested vs 1 MiB available: some must fail.
	if allocErrs == 0 {
		t.Fatal("expected some allocations to fail")
	}
	_ = fmt.Sprintf("%v", d)
}
