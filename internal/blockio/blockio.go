// Package blockio provides block-granular parameter-file I/O for the SSD-PS.
//
// SSDs read and write whole blocks while the parameter server loads
// parameters in key-value granularity; the mismatch causes I/O amplification
// (Section 1, challenge 3). The Device type performs real file I/O on one
// backing file it opens once and holds open: a parameter file is an extent
// of it — a fixed-size slot holding a checksummed header and up to a fixed
// number of fixed-size records — so writing, reading and erasing a parameter
// file are one pwrite, one pread and one small pwrite, with no per-file
// open, create, stat, close or unlink. The device rounds every transfer up
// to whole blocks for accounting, tracks logical vs physical byte counts so
// experiments can report amplification, and counts the work of every
// operation — one SSD read or write of its block-rounded bytes, as hw.Work —
// for hw.Model to price.
//
// The backing file starts with a superblock recording the extent geometry;
// slots follow back to back, each aligned to 512 bytes. An erased extent is a
// slot whose header is zeroed, which is also what a slot never written looks
// like; erased slots are reused before the file grows.
package blockio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"hps/internal/hw"
)

const (
	// BackingFile is the name of the one file a device keeps in its directory.
	BackingFile = "extents.dat"
	// HeaderBytes is the size of the header every extent starts with; callers
	// leave that much room in front of the records they hand to WriteFile.
	//
	//	[0:4)   extentMagic
	//	[4:8)   record count
	//	[8:16)  creation id
	//	[16:20) CRC-32C of bytes [0:16) and the records
	//	[20:24) zero
	HeaderBytes = 24

	// superBytes is the size of the superblock; only its first 20 bytes are
	// used: superMagic, record size, records per extent, CRC-32C of those.
	superBytes = 512
	// slotAlign is what slot sizes are rounded up to.
	slotAlign = 512

	superMagic  = "HPSXTNT1"
	extentMagic = 0x544e5458 // "XTNT"

	// scanBytes is roughly how much Scan reads at a time.
	scanBytes = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats summarizes the I/O a device has performed.
type Stats struct {
	// Reads and Writes count operations.
	Reads, Writes int64
	// LogicalBytesRead/Written are the byte counts requested by callers.
	LogicalBytesRead, LogicalBytesWritten int64
	// PhysicalBytesRead/Written are the block-rounded byte counts.
	PhysicalBytesRead, PhysicalBytesWritten int64
	// Deletes counts removed parameter files.
	Deletes int64
	// Syncs counts completed fsyncs of the backing file.
	Syncs int64
}

// ReadAmplification returns physical/logical bytes read (1.0 when no reads).
func (s Stats) ReadAmplification() float64 {
	if s.LogicalBytesRead == 0 {
		return 1
	}
	return float64(s.PhysicalBytesRead) / float64(s.LogicalBytesRead)
}

// Extent is the handle of one parameter file: where it lives in the backing
// file, the creation id its header carries (ids grow with every WriteFile, so
// of two extents the one written later has the higher id) and how many
// records it holds.
type Extent struct {
	ID      uint64
	Records int
	Offset  int64
}

// String names the extent by its creation id and offset, as errors and the
// recovery report print it.
func (e Extent) String() string {
	return fmt.Sprintf("extent %d at offset %d", e.ID, e.Offset)
}

// Dropped describes a slot Scan found occupied but could not verify.
type Dropped struct {
	Offset int64
	// ID is the creation id the damaged header spells; it is not verified.
	ID     uint64
	Reason string
}

// String describes the dropped slot: its offset, the id its header spells
// and why it was left out.
func (d Dropped) String() string {
	return fmt.Sprintf("offset %d id %d: %s", d.Offset, d.ID, d.Reason)
}

// Device stores parameter files as extents of one backing file in a
// directory. It is safe for concurrent use.
type Device struct {
	dir     string
	ssd     hw.SSD
	counter *hw.Counter
	f       *os.File

	mu    sync.Mutex
	stats Stats
	// Extent geometry, zero until Format or a superblock sets it.
	recordBytes, perExtent int
	slotBytes              int64
	usage                  int64   // physical (block-rounded) bytes of live extents
	slots                  int64   // slots the backing file spans
	free                   []int64 // offsets of erased slots below that, reused last-in first-out
	nextID                 uint64
	// unscanned is set while the backing file holds a previous run's extents
	// that no Scan has adopted; the first write then starts the file over.
	unscanned bool
	hdr       [HeaderBytes]byte // Remove's read buffer
}

// NewDevice creates (if necessary) the directory and opens, or creates, the
// backing file in it. The ssd profile sets the block size and capacity; the
// device counts the work of its reads and writes into counter, which may be
// nil. A backing file left by a previous run keeps its extents until Scan
// adopts them or the first WriteFile discards them. The device knows nothing
// else in the directory.
func NewDevice(dir string, ssd hw.SSD, counter *hw.Counter) (*Device, error) {
	if dir == "" {
		return nil, fmt.Errorf("blockio: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blockio: create dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, BackingFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockio: open backing file: %w", err)
	}
	d := &Device{dir: dir, ssd: ssd, counter: counter, f: f, nextID: 1}
	if err := d.readSuper(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// readSuper adopts the geometry of an existing backing file; an empty file is
// a new one.
func (d *Device) readSuper() error {
	info, err := d.f.Stat()
	if err != nil {
		return fmt.Errorf("blockio: stat backing file: %w", err)
	}
	if info.Size() == 0 {
		return nil
	}
	if info.Size() < superBytes {
		return fmt.Errorf("blockio: %s: a %d-byte file is too short for a superblock", d.f.Name(), info.Size())
	}
	var sb [20]byte
	if _, err := d.f.ReadAt(sb[:], 0); err != nil {
		return fmt.Errorf("blockio: read superblock: %w", err)
	}
	if string(sb[:8]) != superMagic || binary.LittleEndian.Uint32(sb[16:]) != crc32.Checksum(sb[:16], castagnoli) {
		return fmt.Errorf("blockio: %s: bad superblock % x", d.f.Name(), sb)
	}
	d.setGeometry(int(binary.LittleEndian.Uint32(sb[8:])), int(binary.LittleEndian.Uint32(sb[12:])))
	d.slots = (info.Size() - superBytes + d.slotBytes - 1) / d.slotBytes
	d.unscanned = d.slots > 0
	return nil
}

func (d *Device) setGeometry(recordBytes, perExtent int) {
	d.recordBytes, d.perExtent = recordBytes, perExtent
	slot := int64(HeaderBytes) + int64(recordBytes)*int64(perExtent)
	d.slotBytes = (slot + slotAlign - 1) / slotAlign * slotAlign
}

// Format fixes the extent geometry: every parameter file holds at most
// perExtent records of recordBytes each. A new backing file gets a superblock
// saying so; an existing one must already say the same.
func (d *Device) Format(recordBytes, perExtent int) error {
	if recordBytes <= 0 || perExtent <= 0 {
		return fmt.Errorf("blockio: format: %d records of %d bytes per extent", perExtent, recordBytes)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.recordBytes != 0 {
		if d.recordBytes != recordBytes || d.perExtent != perExtent {
			return fmt.Errorf("blockio: %s holds extents of up to %d records of %d bytes, asked for %d of %d",
				d.f.Name(), d.perExtent, d.recordBytes, perExtent, recordBytes)
		}
		return nil
	}
	sb := make([]byte, superBytes)
	copy(sb, superMagic)
	binary.LittleEndian.PutUint32(sb[8:], uint32(recordBytes))
	binary.LittleEndian.PutUint32(sb[12:], uint32(perExtent))
	binary.LittleEndian.PutUint32(sb[16:], crc32.Checksum(sb[:16], castagnoli))
	if _, err := d.f.WriteAt(sb, 0); err != nil {
		return fmt.Errorf("blockio: write superblock: %w", err)
	}
	d.setGeometry(recordBytes, perExtent)
	return nil
}

// Close closes the backing file; I/O on a closed device returns an error.
func (d *Device) Close() error {
	if err := d.f.Close(); err != nil {
		return fmt.Errorf("blockio: close: %w", err)
	}
	return nil
}

// Sync commits the backing file to stable storage (fsync): every extent
// written and every extent erased before the call survives a power loss, not
// only the death of the process. It is not counted as SSD work.
func (d *Device) Sync() error {
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("blockio: sync: %w", err)
	}
	d.mu.Lock()
	d.stats.Syncs++
	d.mu.Unlock()
	return nil
}

// Dir returns the root directory of the device.
func (d *Device) Dir() string { return d.dir }

// extentCRC is the checksum an extent's header carries: over the header's
// magic, count and id, then the records.
func extentCRC(hdr, records []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr[:16], castagnoli), castagnoli, records)
}

// WriteFile writes one new parameter file. buf is HeaderBytes of room, which
// WriteFile fills in, followed by the file's records; the whole of it goes
// out in one write, into an erased slot when there is one. Accounting and the
// counted write cover the records alone, as block-rounded as a file of its
// own would be.
func (d *Device) WriteFile(buf []byte) (Extent, error) {
	n := len(buf) - HeaderBytes
	e, err := d.allocate(n)
	if err != nil {
		return Extent{}, err
	}
	binary.LittleEndian.PutUint32(buf[0:], extentMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(e.Records))
	binary.LittleEndian.PutUint64(buf[8:], e.ID)
	binary.LittleEndian.PutUint32(buf[16:], extentCRC(buf, buf[HeaderBytes:]))
	binary.LittleEndian.PutUint32(buf[20:], 0)
	_, err = d.f.WriteAt(buf, e.Offset)
	phys := d.ssd.Physical(int64(n))
	d.mu.Lock()
	if err != nil {
		// Whatever part of it landed fails its checksum; the slot is free.
		d.free = append(d.free, e.Offset)
		d.mu.Unlock()
		return Extent{}, fmt.Errorf("blockio: write %v: %w", e, err)
	}
	d.stats.Writes++
	d.stats.LogicalBytesWritten += int64(n)
	d.stats.PhysicalBytesWritten += phys
	d.usage += phys
	d.mu.Unlock()
	d.counter.Add(hw.Ops(hw.ResSSDWrite, 1, float64(phys)))
	return e, nil
}

// allocate names a new extent of n bytes of records and finds it a slot: an
// erased one when there is one, else the next past the end of the file.
func (d *Device) allocate(n int) (Extent, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.recordBytes == 0 {
		return Extent{}, errors.New("blockio: write: device is not formatted")
	}
	if n <= 0 || n%d.recordBytes != 0 || n/d.recordBytes > d.perExtent {
		return Extent{}, fmt.Errorf("blockio: write: %d bytes are not 1 to %d records of %d bytes", n, d.perExtent, d.recordBytes)
	}
	if d.unscanned {
		// A run that did not adopt the previous one's extents starts empty:
		// left in place, they would outrank its own in a later Scan.
		if err := d.f.Truncate(superBytes); err != nil {
			return Extent{}, fmt.Errorf("blockio: discard unscanned extents: %w", err)
		}
		d.slots, d.unscanned = 0, false
	}
	e := Extent{ID: d.nextID, Records: n / d.recordBytes}
	d.nextID++
	if k := len(d.free); k > 0 {
		e.Offset, d.free = d.free[k-1], d.free[:k-1]
	} else {
		e.Offset = superBytes + d.slots*d.slotBytes
		d.slots++
	}
	return e, nil
}

// checkHeader reports whether hdr is the header WriteFile gave e.
func checkHeader(hdr []byte, e Extent) error {
	magic, count, id := binary.LittleEndian.Uint32(hdr), binary.LittleEndian.Uint32(hdr[4:]), binary.LittleEndian.Uint64(hdr[8:])
	if magic != extentMagic || id != e.ID || int(count) != e.Records {
		return fmt.Errorf("the slot's header % x is not that of a live %d-record extent %d", hdr[:HeaderBytes], e.Records, e.ID)
	}
	return nil
}

// ReadInto reads a whole parameter file into buf (reused from its start and
// grown as needed; nil allocates) and returns it as WriteFile took it:
// HeaderBytes of header, then the records — and the work of the read, which
// it also counts: one SSD read of the records, block-rounded. Only
// logicalBytes of them are accounted as useful — the rest is I/O
// amplification (an entire parameter file must be read to obtain a subset of
// its parameters); a negative logicalBytes counts them all as useful. A slot
// that no longer holds e is an error.
func (d *Device) ReadInto(e Extent, logicalBytes int64, buf []byte) ([]byte, hw.Work, error) {
	size := int64(e.Records) * int64(d.recordBytes)
	buf = slices.Grow(buf[:0], HeaderBytes+int(size))[:HeaderBytes+int(size)]
	if _, err := d.f.ReadAt(buf, e.Offset); err != nil {
		return nil, hw.Work{}, fmt.Errorf("blockio: read %v: %w", e, err)
	}
	if err := checkHeader(buf, e); err != nil {
		return nil, hw.Work{}, fmt.Errorf("blockio: read %v: %w", e, err)
	}
	if logicalBytes < 0 || logicalBytes > size {
		logicalBytes = size
	}
	phys := d.ssd.Physical(size)
	d.mu.Lock()
	d.stats.Reads++
	d.stats.LogicalBytesRead += logicalBytes
	d.stats.PhysicalBytesRead += phys
	d.mu.Unlock()
	w := hw.Ops(hw.ResSSDRead, 1, float64(phys))
	d.counter.Add(w)
	return buf, w, nil
}

var erasedHeader [HeaderBytes]byte

// Remove erases a parameter file: its slot's header is zeroed in the backing
// file and the slot goes to the next WriteFile. The caller must have waited
// out every reader of e. Removing what is not live is an error: the header is
// checked and zeroed under the device lock, so of two removals of one extent
// the second fails instead of giving the slot two tenants.
func (d *Device) Remove(e Extent) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.f.ReadAt(d.hdr[:], e.Offset)
	if err == nil {
		err = checkHeader(d.hdr[:], e)
	}
	if err == nil {
		_, err = d.f.WriteAt(erasedHeader[:], e.Offset)
	}
	if err != nil {
		return fmt.Errorf("blockio: remove %v: %w", e, err)
	}
	d.usage -= d.ssd.Physical(int64(e.Records) * int64(d.recordBytes))
	d.free = append(d.free, e.Offset)
	d.stats.Deletes++
	return nil
}

// Scan reads the backing file front to back and calls visit with every live
// extent and its records (valid only during the call), in file order; an
// error from visit ends the scan. A slot that is occupied but fails
// verification — a write cut short, or damage — is returned as dropped and
// treated as erased; it is never passed on in part. The device's usage,
// erased-slot list and next creation id are rebuilt from what the scan
// found, so nothing may write to the device while it runs. The reads are
// accounted and counted per live extent, as ReadInto would.
func (d *Device) Scan(visit func(e Extent, records []byte) error) ([]Dropped, error) {
	if d.recordBytes == 0 {
		return nil, errors.New("blockio: scan: device is not formatted")
	}
	info, err := d.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("blockio: scan: %w", err)
	}
	var (
		slots   = (max(info.Size(), superBytes) - superBytes + d.slotBytes - 1) / d.slotBytes
		perRead = max(1, scanBytes/d.slotBytes)
		buf     = make([]byte, min(slots, perRead)*d.slotBytes)
		dropped []Dropped
		free    []int64
		live    int64 // extents, their record bytes, the same block-rounded
		logical int64
		usage   int64
		nextID  = uint64(1)
	)
	for base := int64(0); base < slots; base += perRead {
		off := superBytes + base*d.slotBytes
		n, err := d.f.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("blockio: scan at offset %d: %w", off, err)
		}
		for at := int64(0); at < int64(n); at, off = at+d.slotBytes, off+d.slotBytes {
			slot := buf[at:min(at+d.slotBytes, int64(n))]
			e, reason := d.parseSlot(slot, off)
			switch {
			case reason != "":
				dropped = append(dropped, Dropped{Offset: off, ID: e.ID, Reason: reason})
				free = append(free, off)
			case e.Records == 0:
				free = append(free, off)
			default:
				size := int64(e.Records) * int64(d.recordBytes)
				live++
				logical += size
				usage += d.ssd.Physical(size)
				nextID = max(nextID, e.ID+1)
				if err := visit(e, slot[HeaderBytes:HeaderBytes+size]); err != nil {
					return nil, err
				}
			}
		}
	}
	slices.Reverse(free) // the lowest offsets are reused first
	d.mu.Lock()
	d.stats.Reads += live
	d.stats.LogicalBytesRead += logical
	d.stats.PhysicalBytesRead += usage
	d.usage, d.slots, d.free, d.nextID, d.unscanned = usage, slots, free, nextID, false
	d.mu.Unlock()
	d.counter.Add(hw.Ops(hw.ResSSDRead, live, float64(usage)))
	return dropped, nil
}

// parseSlot classifies the bytes of the slot at off: a live extent, an
// erased or never-written slot (zero Records, no reason), or one to drop,
// with the reason and whatever id its header spells.
func (d *Device) parseSlot(slot []byte, off int64) (Extent, string) {
	hdr := slot[:min(len(slot), HeaderBytes)]
	if bytes.Equal(hdr, erasedHeader[:len(hdr)]) {
		return Extent{}, ""
	}
	if len(hdr) < HeaderBytes {
		return Extent{}, fmt.Sprintf("the file ends %d bytes into the header", len(hdr))
	}
	e := Extent{ID: binary.LittleEndian.Uint64(hdr[8:]), Records: int(binary.LittleEndian.Uint32(hdr[4:])), Offset: off}
	size := int64(e.Records) * int64(d.recordBytes)
	switch {
	case binary.LittleEndian.Uint32(hdr) != extentMagic:
		return e, fmt.Sprintf("bad magic % x", hdr[:4])
	case e.Records == 0 || e.Records > d.perExtent:
		return e, fmt.Sprintf("header claims %d records, an extent holds 1 to %d", e.Records, d.perExtent)
	case HeaderBytes+size > int64(len(slot)):
		return e, fmt.Sprintf("the file ends %d bytes into %d of records", len(slot)-HeaderBytes, size)
	case binary.LittleEndian.Uint32(hdr[16:]) != extentCRC(hdr, slot[HeaderBytes:HeaderBytes+size]):
		return e, "checksum mismatch"
	}
	return e, ""
}

// UsageBytes returns the total physical (block-rounded) bytes of live
// parameter files.
func (d *Device) UsageBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.usage
}

// CapacityBytes returns the modelled device capacity (0 = unlimited).
func (d *Device) CapacityBytes() int64 { return d.ssd.CapacityBytes }

// Stats returns a copy of the accumulated statistics.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
