package blockio

import (
	"bytes"
	"testing"
	"time"

	"hps/internal/hw"
	"hps/internal/simtime"
)

func testSSD() hw.SSD {
	return hw.SSD{
		ReadBandwidthBytesPerSec:  1 << 20,
		WriteBandwidthBytesPerSec: 1 << 20,
		ReadLatency:               time.Microsecond,
		WriteLatency:              time.Microsecond,
		BlockBytes:                4096,
		CapacityBytes:             1 << 30,
	}
}

func newTestDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(t.TempDir(), testSSD(), simtime.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newTestDevice(t)
	data := []byte("hello parameter server")
	if err := d.WriteFile("f1", data); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadFile("f1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if !d.Exists("f1") || d.Exists("f2") {
		t.Fatal("Exists wrong")
	}
}

func TestInvalidNames(t *testing.T) {
	d := newTestDevice(t)
	for _, name := range []string{"", "a/b", "..", ".", `a\b`} {
		if err := d.WriteFile(name, []byte("x")); err == nil {
			t.Fatalf("name %q should be rejected", name)
		}
		if _, err := d.ReadFile(name); err == nil {
			t.Fatalf("read of %q should be rejected", name)
		}
		if err := d.Remove(name); err == nil {
			t.Fatalf("remove of %q should be rejected", name)
		}
	}
}

func TestNewDeviceValidation(t *testing.T) {
	if _, err := NewDevice("", testSSD(), nil); err == nil {
		t.Fatal("empty dir should fail")
	}
}

func TestReadMissingFile(t *testing.T) {
	d := newTestDevice(t)
	if _, err := d.ReadFile("missing"); err == nil {
		t.Fatal("missing file should error")
	}
	if err := d.Remove("missing"); err == nil {
		t.Fatal("removing missing file should error")
	}
}

func TestStatsAndAmplification(t *testing.T) {
	d := newTestDevice(t)
	// 100 logical bytes occupy one 4096-byte block.
	if err := d.WriteFile("f", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadFile("f"); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Writes != 1 || s.Reads != 1 {
		t.Fatalf("ops = %+v", s)
	}
	if s.LogicalBytesWritten != 100 || s.PhysicalBytesWritten != 4096 {
		t.Fatalf("write bytes = %+v", s)
	}
	if s.WriteAmplification() != 40.96 {
		t.Fatalf("write amplification = %v", s.WriteAmplification())
	}
	if s.ReadAmplification() != 40.96 {
		t.Fatalf("read amplification = %v", s.ReadAmplification())
	}
	var empty Stats
	if empty.ReadAmplification() != 1 || empty.WriteAmplification() != 1 {
		t.Fatal("empty stats amplification should be 1")
	}
}

func TestReadIntoAmplification(t *testing.T) {
	d := newTestDevice(t)
	if err := d.WriteFile("f", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	// Only 100 of the 1000 bytes are useful.
	if _, err := d.ReadInto("f", 100, nil); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.LogicalBytesRead != 100 {
		t.Fatalf("logical read = %d, want 100", s.LogicalBytesRead)
	}
	if s.PhysicalBytesRead != 4096 {
		t.Fatalf("physical read = %d", s.PhysicalBytesRead)
	}
	// Requesting more useful bytes than exist clamps.
	if _, err := d.ReadInto("f", 1<<20, nil); err != nil {
		t.Fatal(err)
	}
	s = d.Stats()
	if s.LogicalBytesRead != 1100 {
		t.Fatalf("logical read = %d, want 1100", s.LogicalBytesRead)
	}
}

// ReadInto reuses the caller's buffer from its start: a file smaller than the
// previous one must not return the previous tail, a larger one must grow.
func TestReadIntoReusesBuffer(t *testing.T) {
	d := newTestDevice(t)
	files := map[string][]byte{
		"big":   bytes.Repeat([]byte{7}, 9000),
		"small": []byte("abc"),
		"empty": {},
	}
	for name, data := range files {
		if err := d.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, 16)
	for _, name := range []string{"small", "big", "small", "empty", "big"} {
		got, err := d.ReadInto(name, -1, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, files[name]) {
			t.Fatalf("%s: read %d bytes, want %d", name, len(got), len(files[name]))
		}
		buf = got
	}
	if s := d.Stats(); s.LogicalBytesRead != 2*9000+2*3 {
		t.Fatalf("logical read = %d", s.LogicalBytesRead)
	}
}

func TestUsageAndRemove(t *testing.T) {
	d := newTestDevice(t)
	d.WriteFile("a", make([]byte, 10))
	d.WriteFile("b", make([]byte, 5000))
	if got := d.UsageBytes(); got != 4096+8192 {
		t.Fatalf("usage = %d", got)
	}
	files := d.ListFiles()
	if len(files) != 2 || files[0] != "a" || files[1] != "b" {
		t.Fatalf("files = %v", files)
	}
	if err := d.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if got := d.UsageBytes(); got != 8192 {
		t.Fatalf("usage after remove = %d", got)
	}
	if d.Stats().Deletes != 1 {
		t.Fatal("delete count")
	}
	// Overwriting a file replaces its usage, not adds to it.
	d.WriteFile("b", make([]byte, 100))
	if got := d.UsageBytes(); got != 4096 {
		t.Fatalf("usage after overwrite = %d", got)
	}
}

func TestClockCharging(t *testing.T) {
	clock := simtime.NewClock()
	d, err := NewDevice(t.TempDir(), testSSD(), clock)
	if err != nil {
		t.Fatal(err)
	}
	d.WriteFile("f", make([]byte, 4096))
	if clock.Total(simtime.ResourceSSD) <= 0 {
		t.Fatal("write should charge SSD time")
	}
	before := clock.Total(simtime.ResourceSSD)
	d.ReadFile("f")
	if clock.Total(simtime.ResourceSSD) <= before {
		t.Fatal("read should charge SSD time")
	}
}

func TestReopenAdoptsFiles(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDevice(dir, testSSD(), nil)
	if err != nil {
		t.Fatal(err)
	}
	d1.WriteFile("persisted", make([]byte, 123))
	d2, err := NewDevice(dir, testSSD(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Exists("persisted") {
		t.Fatal("reopened device should adopt existing files")
	}
	if d2.UsageBytes() != 4096 {
		t.Fatalf("adopted usage = %d", d2.UsageBytes())
	}
}

func TestDeviceAccessors(t *testing.T) {
	d := newTestDevice(t)
	if d.BlockBytes() != 4096 {
		t.Fatal("block size accessor")
	}
	if d.CapacityBytes() != 1<<30 {
		t.Fatal("capacity accessor")
	}
	if d.Dir() == "" {
		t.Fatal("dir accessor")
	}
}

func TestConcurrentWriters(t *testing.T) {
	d := newTestDevice(t)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(id int) {
			name := string(rune('a' + id))
			done <- d.WriteFile(name, make([]byte, 100*(id+1)))
		}(w)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if len(d.ListFiles()) != 8 {
		t.Fatal("concurrent writes lost files")
	}
	if d.Stats().Writes != 8 {
		t.Fatal("stats lost writes")
	}
}
