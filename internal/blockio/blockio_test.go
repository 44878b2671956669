package blockio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hps/internal/hw"
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

// Test devices hold parameter files of up to 100 records of 100 bytes.
const testRecord, testPerExtent = 100, 100

func openTestDevice(t testing.TB, dir string, counter *hw.Counter) *Device {
	t.Helper()
	d, err := NewDevice(dir, testSSD(), counter)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.Format(testRecord, testPerExtent); err != nil {
		t.Fatal(err)
	}
	return d
}

func newTestDevice(t testing.TB) *Device {
	return openTestDevice(t, t.TempDir(), hw.NewCounter())
}

// file is a parameter file of n records of the given byte, as WriteFile takes
// it: room for the header first.
func file(n int, fill byte) []byte {
	return append(make([]byte, HeaderBytes), bytes.Repeat([]byte{fill}, n*testRecord)...)
}

func mustWrite(t testing.TB, d *Device, buf []byte) Extent {
	t.Helper()
	e, err := d.WriteFile(buf)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// scanAll returns what a Scan of d visits, records copied.
func scanAll(t testing.TB, d *Device) (map[Extent][]byte, []Dropped) {
	t.Helper()
	live := map[Extent][]byte{}
	dropped, err := d.Scan(func(e Extent, records []byte) error {
		live[e] = bytes.Clone(records)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return live, dropped
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newTestDevice(t)
	buf := file(3, 0)
	copy(buf[HeaderBytes:], "hello parameter server")
	e := mustWrite(t, d, buf)
	if e.Records != 3 || e.ID == 0 {
		t.Fatalf("extent = %+v", e)
	}
	got, _, err := d.ReadInto(e, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("round trip mismatch")
	}
	// A later file has a higher id and its own slot.
	e2 := mustWrite(t, d, file(1, 9))
	if e2.ID <= e.ID || e2.Offset == e.Offset {
		t.Fatalf("second extent %+v after %+v", e2, e)
	}
}

func TestNewDeviceValidation(t *testing.T) {
	if _, err := NewDevice("", testSSD(), nil); err == nil {
		t.Fatal("empty dir should fail")
	}
	d := newTestDevice(t)
	for _, n := range []int{HeaderBytes, HeaderBytes + testRecord - 1, HeaderBytes + (testPerExtent+1)*testRecord, 3} {
		if _, err := d.WriteFile(make([]byte, n)); err == nil {
			t.Fatalf("a %d-byte buffer is not a header and 1 to %d records, and should be rejected", n, testPerExtent)
		}
	}
	if err := d.Format(testRecord, testPerExtent); err != nil {
		t.Fatalf("formatting again with the same geometry: %v", err)
	}
	if err := d.Format(testRecord+1, testPerExtent); err == nil {
		t.Fatal("formatting with another geometry should fail")
	}
	raw, err := NewDevice(t.TempDir(), testSSD(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.WriteFile(file(1, 1)); err == nil {
		t.Fatal("writing to an unformatted device should fail")
	}
	if _, err := raw.Scan(func(Extent, []byte) error { return nil }); err == nil {
		t.Fatal("scanning an unformatted device should fail")
	}
}

// A backing file whose superblock is short, foreign or damaged is an error
// that says what was found, not a fresh device.
func TestBadSuperblock(t *testing.T) {
	good := t.TempDir()
	openTestDevice(t, good, nil).Close()
	sb, err := os.ReadFile(filepath.Join(good, BackingFile))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(sb)
	flipped[9] ^= 1 // the record size, under the checksum
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"short":   {sb[:100], "100-byte file is too short"},
		"foreign": {bytes.Repeat([]byte("x"), superBytes), "bad superblock 78 78"},
		"damaged": {flipped, "bad superblock"},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, BackingFile), tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewDevice(dir, testSSD(), nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewDevice = %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// TestReadMissingFile: a parameter file that was removed can be neither read
// nor removed again, and a closed device fails every operation.
func TestReadMissingFile(t *testing.T) {
	d := newTestDevice(t)
	e := mustWrite(t, d, file(2, 1))
	if err := d.Remove(e); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ReadInto(e, -1, nil); err == nil {
		t.Fatal("reading a removed file should error")
	}
	if err := d.Remove(e); err == nil {
		t.Fatal("removing a removed file should error")
	}
	// Nor does its handle read the slot's next tenant.
	next := mustWrite(t, d, file(2, 2))
	if next.Offset != e.Offset {
		t.Fatalf("the erased slot at %d was not reused: next file at %d", e.Offset, next.Offset)
	}
	if _, _, err := d.ReadInto(e, -1, nil); err == nil {
		t.Fatal("a removed file's handle read the slot's next tenant")
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteFile(file(1, 3)); err == nil {
		t.Fatal("write on a closed device should error")
	}
	if _, _, err := d.ReadInto(next, -1, nil); err == nil {
		t.Fatal("read on a closed device should error")
	}
	if err := d.Remove(next); err == nil {
		t.Fatal("remove on a closed device should error")
	}
	if got := d.UsageBytes(); got != 4096 {
		t.Fatalf("failed operations moved usage to %d", got)
	}
}

func TestStatsAndAmplification(t *testing.T) {
	d := newTestDevice(t)
	// 100 logical bytes occupy one 4096-byte block; the header is not counted.
	e := mustWrite(t, d, file(1, 0))
	if _, _, err := d.ReadInto(e, -1, nil); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Writes != 1 || s.Reads != 1 {
		t.Fatalf("ops = %+v", s)
	}
	if s.LogicalBytesWritten != 100 || s.PhysicalBytesWritten != 4096 {
		t.Fatalf("write bytes = %+v", s)
	}
	if s.ReadAmplification() != 40.96 {
		t.Fatalf("read amplification = %v", s.ReadAmplification())
	}
	var empty Stats
	if empty.ReadAmplification() != 1 {
		t.Fatal("empty stats amplification should be 1")
	}
}

func TestReadIntoAmplification(t *testing.T) {
	d := newTestDevice(t)
	e := mustWrite(t, d, file(10, 0))
	// Only 100 of the 1000 bytes are useful.
	if _, _, err := d.ReadInto(e, 100, nil); err != nil {
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
	if _, _, err := d.ReadInto(e, 1<<20, nil); err != nil {
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
	files := map[string][]byte{"big": file(90, 7), "small": file(1, 3)}
	extents := map[string]Extent{}
	for name, data := range files {
		extents[name] = mustWrite(t, d, data)
	}
	buf := make([]byte, 0, 16)
	for _, name := range []string{"small", "big", "small", "big"} {
		got, _, err := d.ReadInto(extents[name], -1, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, files[name]) {
			t.Fatalf("%s: read %d bytes, want %d", name, len(got), len(files[name]))
		}
		buf = got
	}
	if s := d.Stats(); s.LogicalBytesRead != 2*9000+2*100 {
		t.Fatalf("logical read = %d", s.LogicalBytesRead)
	}
}

func TestUsageAndRemove(t *testing.T) {
	d := newTestDevice(t)
	a := mustWrite(t, d, file(1, 1))
	b := mustWrite(t, d, file(50, 2))
	if got := d.UsageBytes(); got != 4096+8192 {
		t.Fatalf("usage = %d", got)
	}
	if err := d.Remove(a); err != nil {
		t.Fatal(err)
	}
	if got := d.UsageBytes(); got != 8192 {
		t.Fatalf("usage after remove = %d", got)
	}
	if d.Stats().Deletes != 1 {
		t.Fatal("delete count")
	}
	// The erased slot is reused before the file grows, whatever the size of
	// its next tenant.
	c := mustWrite(t, d, file(100, 3))
	if c.Offset != a.Offset {
		t.Fatalf("new file at offset %d, want the erased slot at %d", c.Offset, a.Offset)
	}
	if got := d.UsageBytes(); got != 8192+12288 {
		t.Fatalf("usage after reuse = %d", got)
	}
	for e, fill := range map[Extent]byte{b: 2, c: 3} {
		got, _, err := d.ReadInto(e, -1, nil)
		if err != nil || !bytes.Equal(got[HeaderBytes:], bytes.Repeat([]byte{fill}, e.Records*testRecord)) {
			t.Fatalf("%v read back wrong (err %v)", e, err)
		}
	}
}

// TestClockCharging: a write and a read each count one SSD operation of
// their block-rounded record bytes, and ReadInto returns what it counted.
func TestClockCharging(t *testing.T) {
	c := hw.NewCounter()
	d := openTestDevice(t, t.TempDir(), c)
	e := mustWrite(t, d, file(40, 0)) // 4,000 B of records: one 4 KiB block
	if got := c.Total()[hw.ResSSDWrite]; got != (hw.Use{Ops: 1, Amount: 4096}) {
		t.Fatalf("write counted %+v", got)
	}
	_, w, err := d.ReadInto(e, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := hw.Ops(hw.ResSSDRead, 1, 4096); w != want || c.Total()[hw.ResSSDRead] != want[hw.ResSSDRead] {
		t.Fatalf("read returned %v, counted %+v", w, c.Total()[hw.ResSSDRead])
	}
}

// TestReopenAdoptsFiles: a device reopened on its directory adopts, through
// Scan, exactly the parameter files the previous one left live — and nothing
// else the directory holds.
func TestReopenAdoptsFiles(t *testing.T) {
	dir := t.TempDir()
	d1 := openTestDevice(t, dir, nil)
	kept := mustWrite(t, d1, file(2, 1))
	gone := mustWrite(t, d1, file(3, 2))
	last := mustWrite(t, d1, file(1, 3))
	if err := d1.Remove(gone); err != nil {
		t.Fatal(err)
	}
	d1.Close()
	// A shard keeps its push-dedup log beside the backing file.
	if err := os.WriteFile(filepath.Join(dir, "seqlog"), make([]byte, 1<<20), 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := openTestDevice(t, dir, nil)
	if got := d2.UsageBytes(); got != 0 {
		t.Fatalf("usage before the scan = %d: a foreign file was counted", got)
	}
	live, dropped := scanAll(t, d2)
	if len(dropped) != 0 {
		t.Fatalf("dropped %v", dropped)
	}
	if len(live) != 2 || !bytes.Equal(live[kept], file(2, 1)[HeaderBytes:]) || !bytes.Equal(live[last], file(1, 3)[HeaderBytes:]) {
		t.Fatalf("scan visited %d extents, want %v and %v with their records", len(live), kept, last)
	}
	if got := d2.UsageBytes(); got != 2*4096 {
		t.Fatalf("adopted usage = %d", got)
	}
	// New files continue the id sequence and fill the erased slot first.
	e := mustWrite(t, d2, file(1, 4))
	if e.ID <= last.ID || e.Offset != gone.Offset {
		t.Fatalf("first file after reopen is %+v, want an id above %d in the slot at %d", e, last.ID, gone.Offset)
	}
}

// A device that starts writing without a Scan starts empty: the previous
// run's extents must not survive to outrank the new run's in a later Scan.
func TestWriteWithoutScanStartsOver(t *testing.T) {
	dir := t.TempDir()
	d1 := openTestDevice(t, dir, nil)
	for i := 0; i < 5; i++ {
		mustWrite(t, d1, file(1, 1))
	}
	d1.Close()
	d2 := openTestDevice(t, dir, nil)
	e := mustWrite(t, d2, file(1, 2))
	d2.Close()
	live, dropped := scanAll(t, openTestDevice(t, dir, nil))
	if len(live) != 1 || len(dropped) != 0 || live[e] == nil {
		t.Fatalf("scan found %d live and %d dropped extents, want only %v", len(live), len(dropped), e)
	}
}

// TestScanDropsTornExtents cuts and damages the backing file: a slot that
// fails verification is reported with its offset and id and left out, the
// others are unaffected, and its slot is the next to be written.
func TestScanDropsTornExtents(t *testing.T) {
	dir := t.TempDir()
	d := openTestDevice(t, dir, nil)
	var es []Extent
	for i := 0; i < 4; i++ {
		es = append(es, mustWrite(t, d, file(100, byte(i+1))))
	}
	d.Close()
	path := filepath.Join(dir, BackingFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[es[1].Offset+HeaderBytes+5000] ^= 0x40 // one bit of one record
	data[es[2].Offset+4]++                      // the record count
	cut := es[3].Offset + 6000                  // the last write never finished
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	d = openTestDevice(t, dir, nil)
	live, dropped := scanAll(t, d)
	if len(live) != 1 || !bytes.Equal(live[es[0]], file(100, 1)[HeaderBytes:]) {
		t.Fatalf("scan visited %d extents, want only %v", len(live), es[0])
	}
	if len(dropped) != 3 {
		t.Fatalf("dropped %v, want 3", dropped)
	}
	for i, dr := range dropped {
		if dr.Offset != es[i+1].Offset || dr.ID != es[i+1].ID || dr.Reason == "" {
			t.Errorf("dropped[%d] = %v, want extent %v", i, dr, es[i+1])
		}
	}
	if got := d.UsageBytes(); got != 12288 {
		t.Fatalf("usage = %d, want one 10000-byte file", got)
	}
	if e := mustWrite(t, d, file(1, 9)); e.Offset != es[1].Offset || e.ID <= es[0].ID {
		t.Fatalf("next file %+v, want the lowest dropped slot at %d", e, es[1].Offset)
	}
}

func TestDeviceAccessors(t *testing.T) {
	d := newTestDevice(t)
	if d.CapacityBytes() != 1<<30 {
		t.Fatal("capacity accessor")
	}
	if d.Dir() == "" {
		t.Fatal("dir accessor")
	}
}

// TestSyncCountsAndFailsClosed checks that a sync of a live device is counted
// and that one of a closed device is an error, never a silent success.
func TestSyncCountsAndFailsClosed(t *testing.T) {
	d := newTestDevice(t)
	mustWrite(t, d, file(3, 1))
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Syncs; got != 1 {
		t.Fatalf("Syncs = %d after one sync, want 1", got)
	}
	d.Close()
	if err := d.Sync(); err == nil {
		t.Fatal("a sync of a closed device succeeded")
	}
	if got := d.Stats().Syncs; got != 1 {
		t.Fatalf("Syncs = %d after a failed sync, want 1", got)
	}
}

func TestConcurrentWriters(t *testing.T) {
	d := newTestDevice(t)
	var wg sync.WaitGroup
	extents := make([]Extent, 8)
	for w := range extents {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e, err := d.WriteFile(file(id+1, byte(id+1)))
			if err != nil {
				t.Error(err)
			}
			extents[id] = e
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	offsets, ids := map[int64]bool{}, map[uint64]bool{}
	for id, e := range extents {
		offsets[e.Offset], ids[e.ID] = true, true
		got, _, err := d.ReadInto(e, -1, nil)
		if err != nil || !bytes.Equal(got[HeaderBytes:], file(id+1, byte(id+1))[HeaderBytes:]) {
			t.Fatalf("writer %d: %v read back wrong (err %v)", id, e, err)
		}
	}
	if len(offsets) != 8 || len(ids) != 8 {
		t.Fatal("concurrent writes shared a slot or an id")
	}
	if d.Stats().Writes != 8 {
		t.Fatal("stats lost writes")
	}
}

// The device's steady state — write a parameter file, read it, erase it —
// must reuse its slots and never open, create or leave behind another file.
func TestSteadyStateKeepsOneFile(t *testing.T) {
	dir := t.TempDir()
	d := openTestDevice(t, dir, nil)
	buf := file(testPerExtent, 5)
	for i := 0; i < 200; i++ {
		a, b := mustWrite(t, d, buf), mustWrite(t, d, buf)
		for _, e := range []Extent{a, b} {
			if _, _, err := d.ReadInto(e, -1, nil); err != nil {
				t.Fatal(err)
			}
			if err := d.Remove(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != BackingFile {
		t.Fatalf("directory holds %v, want only %s", entries, BackingFile)
	}
	info, err := entries[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	if limit := int64(superBytes + 2*(len(buf)+slotAlign)); info.Size() > limit {
		t.Fatalf("backing file grew to %d bytes for two live files at a time (limit %d)", info.Size(), limit)
	}
}

var benchSink []byte

// The cold training shape: 256 records of 80 bytes per parameter file.
const coldRecord, coldPerExtent = 80, 256

func benchDevice(b *testing.B) *Device {
	b.Helper()
	d, err := NewDevice(b.TempDir(), testSSD(), hw.NewCounter())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	if err := d.Format(coldRecord, coldPerExtent); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkExtentWrite is the dump side of the miss path: one full parameter
// file written into a slot a compaction erased, which is then erased again.
func BenchmarkExtentWrite(b *testing.B) {
	d := benchDevice(b)
	buf := make([]byte, HeaderBytes+coldRecord*coldPerExtent)
	for i := range buf {
		buf[i] = byte(i)
	}
	// 64 live files at a time, so a slot is not rewritten the moment it was.
	ring := make([]Extent, 64)
	for i := range ring {
		ring[i] = mustWrite(b, d, buf)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := &ring[i%len(ring)]
		if err := d.Remove(*slot); err != nil {
			b.Fatal(err)
		}
		e, err := d.WriteFile(buf)
		if err != nil {
			b.Fatal(err)
		}
		*slot = e
	}
}

// BenchmarkExtentRead is the load side: one whole parameter file read into a
// reused buffer.
func BenchmarkExtentRead(b *testing.B) {
	d := benchDevice(b)
	buf := make([]byte, HeaderBytes+coldRecord*coldPerExtent)
	extents := make([]Extent, 64)
	for i := range extents {
		extents[i] = mustWrite(b, d, buf)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchSink, _, err = d.ReadInto(extents[i%len(extents)], coldRecord*14, benchSink); err != nil {
			b.Fatal(err)
		}
	}
}
