// Package gpu simulates the GPU devices that host the HBM-PS.
//
// A real deployment keeps the working parameters in GPU HBM and runs the
// dense network as CUDA kernels. This package reproduces the structural
// constraints of that environment — a bounded HBM byte budget per device,
// which a working-set partition must fit into, and concurrent worker access —
// while executing on the CPU. The HBM-PS lays the working set out itself and
// counts the memory traffic it causes (package hbmps); a device only
// accounts for the bytes it reserves.
package gpu

import (
	"errors"
	"fmt"
	"sync"

	"hps/internal/embedding"
	"hps/internal/hw"
)

// ErrOutOfMemory is returned when an allocation exceeds the device's HBM.
var ErrOutOfMemory = errors.New("gpu: out of HBM memory")

// BytesPerEntry returns the HBM footprint charged per working-set entry: its
// encoded value (weights, accumulators and frequency) in the resident slab,
// plus 16 bytes for its 8-byte key and its 4-byte row and position indices.
func BytesPerEntry(dim int) int64 {
	return int64(embedding.EncodedSize(dim)) + 16
}

// Device is a simulated GPU: a bounded HBM allocator. It is safe for
// concurrent use.
type Device struct {
	// ID is the device index within its node (0-based).
	ID int
	// NodeID identifies the node hosting the device.
	NodeID int

	profile hw.GPU

	mu      sync.Mutex
	hbmUsed int64
}

// NewDevice constructs a device with the given hardware profile.
func NewDevice(nodeID, id int, profile hw.GPU) *Device {
	return &Device{ID: id, NodeID: nodeID, profile: profile}
}

// HBMUsed returns the currently allocated HBM bytes.
func (d *Device) HBMUsed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hbmUsed
}

// Alloc reserves n bytes of HBM, failing with ErrOutOfMemory if the device
// budget would be exceeded. A zero-capacity profile means "unlimited" and is
// used by unit tests.
func (d *Device) Alloc(n int64) error {
	if n < 0 {
		return fmt.Errorf("gpu: negative allocation %d", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.profile.HBMBytes > 0 && d.hbmUsed+n > d.profile.HBMBytes {
		return fmt.Errorf("%w: need %d, free %d", ErrOutOfMemory, n, d.profile.HBMBytes-d.hbmUsed)
	}
	d.hbmUsed += n
	return nil
}

// Free releases n bytes of HBM.
func (d *Device) Free(n int64) {
	if n < 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hbmUsed -= n
	if d.hbmUsed < 0 {
		d.hbmUsed = 0
	}
}

// String implements fmt.Stringer.
func (d *Device) String() string {
	return fmt.Sprintf("gpu%d.%d", d.NodeID, d.ID)
}
