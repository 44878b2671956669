package simtime

import (
	"sync"
	"testing"

	"hps/internal/hw"
)

func TestClockAddTotal(t *testing.T) {
	c := NewClock()
	c.Add(hw.Ops(hw.ResGPU, 2, 200))
	c.Add(hw.Ops(hw.ResGPU, 3, 300))
	c.Add(hw.Ops(hw.ResSSDRead, 1, 4096))
	w := c.Total()
	if got := w[hw.ResGPU]; got != (hw.Use{Ops: 5, Amount: 500}) {
		t.Fatalf("gpu = %+v, want 5 ops of 500 FLOPs", got)
	}
	if got := w[hw.ResSSDRead]; got != (hw.Use{Ops: 1, Amount: 4096}) {
		t.Fatalf("ssd read = %+v", got)
	}
	if got := w[hw.ResCPU]; got != (hw.Use{}) {
		t.Fatalf("cpu = %+v, want nothing", got)
	}
}

// TestClockIgnoresNegative: negative counts model to no time.
func TestClockIgnoresNegative(t *testing.T) {
	c := NewClock()
	c.Add(hw.Ops(hw.ResGPU, -1, -1e9))
	if got := hw.Model(hw.DefaultGPUNode(), c.Total()).Sum(); got != 0 {
		t.Fatalf("negative counts modelled to %v, want 0", got)
	}
}

func TestClockConcurrent(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	const workers = 16
	const perWorker = 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.Add(hw.Ops(hw.ResNetwork, 1, 8))
			}
		}()
	}
	wg.Wait()
	want := hw.Use{Ops: workers * perWorker, Amount: 8 * workers * perWorker}
	if got := c.Total()[hw.ResNetwork]; got != want {
		t.Fatalf("concurrent total = %+v, want %+v", got, want)
	}
}

func TestNilClockSafe(t *testing.T) {
	var c *Clock
	c.Add(hw.Ops(hw.ResGPU, 1, 1)) // must not panic
	if c.Total() != (hw.Work{}) {
		t.Fatal("nil clock should count nothing")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	c := NewClock()
	c.Add(hw.Ops(hw.ResGPU, 1, 1))
	snap := c.Total()
	snap[hw.ResGPU] = hw.Use{}
	if got := c.Total()[hw.ResGPU]; got.Ops != 1 {
		t.Fatalf("snapshot must be a copy, clock changed to %+v", got)
	}
}
