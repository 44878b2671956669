// Package blockio provides block-granular file I/O for the SSD-PS.
//
// SSDs read and write whole blocks while the parameter server loads
// parameters in key-value granularity; the mismatch causes I/O amplification
// (Section 1, challenge 3). The Device type performs real file I/O on a local
// directory, rounds every transfer up to whole blocks for accounting, tracks
// logical vs physical byte counts so experiments can report amplification,
// and charges the modelled SSD time of every operation to a simtime.Clock.
package blockio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"hps/internal/hw"
	"hps/internal/simtime"
)

// Stats summarizes the I/O a device has performed.
type Stats struct {
	// Reads and Writes count operations.
	Reads, Writes int64
	// LogicalBytesRead/Written are the byte counts requested by callers.
	LogicalBytesRead, LogicalBytesWritten int64
	// PhysicalBytesRead/Written are the block-rounded byte counts.
	PhysicalBytesRead, PhysicalBytesWritten int64
	// Deletes counts removed files.
	Deletes int64
}

// ReadAmplification returns physical/logical bytes read (1.0 when no reads).
func (s Stats) ReadAmplification() float64 {
	if s.LogicalBytesRead == 0 {
		return 1
	}
	return float64(s.PhysicalBytesRead) / float64(s.LogicalBytesRead)
}

// WriteAmplification returns physical/logical bytes written (1.0 when no
// writes).
func (s Stats) WriteAmplification() float64 {
	if s.LogicalBytesWritten == 0 {
		return 1
	}
	return float64(s.PhysicalBytesWritten) / float64(s.LogicalBytesWritten)
}

// Device is a block-granular file store rooted at a directory.
// It is safe for concurrent use.
type Device struct {
	mu    sync.Mutex
	dir   string
	ssd   hw.SSD
	clock *simtime.Clock
	stats Stats
	// usage tracks the physical (block-rounded) size of every live file.
	usage map[string]int64
}

// NewDevice creates (if necessary) the directory and returns a device that
// stores files in it. The ssd profile drives time accounting; clock may be
// nil to disable accounting.
func NewDevice(dir string, ssd hw.SSD, clock *simtime.Clock) (*Device, error) {
	if dir == "" {
		return nil, fmt.Errorf("blockio: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blockio: create dir: %w", err)
	}
	d := &Device{dir: dir, ssd: ssd, clock: clock, usage: make(map[string]int64)}
	// Adopt any pre-existing files (e.g. reopening an SSD-PS directory).
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("blockio: list dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		d.usage[e.Name()] = d.physical(info.Size())
	}
	return d, nil
}

// Dir returns the root directory of the device.
func (d *Device) Dir() string { return d.dir }

// BlockBytes returns the device block size.
func (d *Device) BlockBytes() int64 { return d.ssd.BlockBytes }

// Profile returns the SSD hardware model driving the device's time
// accounting, so callers can attribute the same modelled durations to their
// own per-operation statistics.
func (d *Device) Profile() hw.SSD { return d.ssd }

func (d *Device) physical(n int64) int64 {
	if d.ssd.BlockBytes <= 0 {
		return n
	}
	if n <= 0 {
		return 0
	}
	blocks := (n + d.ssd.BlockBytes - 1) / d.ssd.BlockBytes
	return blocks * d.ssd.BlockBytes
}

func (d *Device) path(name string) (string, error) {
	if name == "" || strings.Contains(name, "/") || strings.Contains(name, "\\") || name == "." || name == ".." {
		return "", fmt.Errorf("blockio: invalid file name %q", name)
	}
	return filepath.Join(d.dir, name), nil
}

// WriteFile writes data as a new file (or replaces an existing one) and
// charges the modelled sequential-write time.
func (d *Device) WriteFile(name string, data []byte) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		return fmt.Errorf("blockio: write %s: %w", name, err)
	}
	phys := d.physical(int64(len(data)))
	d.mu.Lock()
	d.stats.Writes++
	d.stats.LogicalBytesWritten += int64(len(data))
	d.stats.PhysicalBytesWritten += phys
	d.usage[name] = phys
	d.mu.Unlock()
	d.clock.Add(simtime.ResourceSSD, d.ssd.WriteTime(int64(len(data))))
	return nil
}

// ReadFile reads an entire file and charges the modelled read time.
func (d *Device) ReadFile(name string) ([]byte, error) {
	return d.ReadInto(name, -1, nil)
}

// ReadInto reads an entire file into buf (reused from its start and grown as
// needed; nil allocates) and charges the modelled read time of the whole
// file. Only logicalBytes of it are accounted as useful — the rest is I/O
// amplification (an entire parameter file must be read to obtain a subset of
// its parameters); a negative logicalBytes counts the whole file as useful.
func (d *Device) ReadInto(name string, logicalBytes int64, buf []byte) ([]byte, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	data, err := readInto(p, buf)
	if err != nil {
		return nil, fmt.Errorf("blockio: read %s: %w", name, err)
	}
	size := int64(len(data))
	if logicalBytes < 0 || logicalBytes > size {
		logicalBytes = size
	}
	d.mu.Lock()
	d.stats.Reads++
	d.stats.LogicalBytesRead += logicalBytes
	d.stats.PhysicalBytesRead += d.physical(size)
	d.mu.Unlock()
	d.clock.Add(simtime.ResourceSSD, d.ssd.ReadTime(size))
	return data, nil
}

// readInto is os.ReadFile into a caller-supplied buffer.
func readInto(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf = buf[:0]
	if cap(buf) == 0 {
		if info, err := f.Stat(); err == nil {
			// One spare byte lets the read after the last one see EOF
			// without growing the buffer first.
			buf = make([]byte, 0, info.Size()+1)
		}
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Remove deletes a file.
func (d *Device) Remove(name string) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil {
		return fmt.Errorf("blockio: remove %s: %w", name, err)
	}
	d.mu.Lock()
	delete(d.usage, name)
	d.stats.Deletes++
	d.mu.Unlock()
	return nil
}

// Exists reports whether the named file exists on the device.
func (d *Device) Exists(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.usage[name]
	return ok
}

// ListFiles returns the names of all live files in lexical order.
func (d *Device) ListFiles() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.usage))
	for name := range d.usage {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// UsageBytes returns the total physical (block-rounded) bytes of live files.
func (d *Device) UsageBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var total int64
	for _, n := range d.usage {
		total += n
	}
	return total
}

// CapacityBytes returns the modelled device capacity (0 = unlimited).
func (d *Device) CapacityBytes() int64 { return d.ssd.CapacityBytes }

// Stats returns a copy of the accumulated statistics.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
