package gpu

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/simtime"
)

func TestBytesPerEntry(t *testing.T) {
	if BytesPerEntry(8) != int64(embedding.EncodedSize(8))+16 {
		t.Fatal("BytesPerEntry formula changed unexpectedly")
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
