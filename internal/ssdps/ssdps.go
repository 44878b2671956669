// Package ssdps implements the SSD parameter server (Section 6, Appendix E):
// the bottom tier of the hierarchy, holding the materialized
// out-of-main-memory sparse parameters in files on the local SSD.
//
// Parameters are organized in file granularity. A parameter-to-file mapping
// lives in main memory; loads read whole files (accepting read amplification
// in exchange for sequential bandwidth), updates are written in batches as
// new files (never in place), superseded copies become stale, and a
// compaction pass merges files dominated by stale values to bound disk usage
// at roughly 2x the live parameter size.
//
// A parameter file is a plain array of fixed-size records (8 bytes of key,
// then the embedding.Value encoding at the store's dimension), so the mapping
// addresses a parameter as (file, slot): a load decodes only the slots it was
// asked for out of the file it read, straight into the caller's rows, and
// compaction moves live records as raw bytes. The mapping is an
// open-addressed keys.Table of pointer-free locations — a file's number in
// the store's file table and a slot — so a dump or a compaction re-points a
// key with one upsert, and the collector never walks it. On disk a parameter
// file is an extent of the device's one backing file (see blockio), which
// numbers the files in creation order and checksums them.
//
// The product paths move rows as ps.ValueBlocks: LoadInto fills the rows of
// a block, DumpBlock writes one. Load, LoadTimed and Dump (views.go) are
// map-shaped views of those two that only the benchmark's layer probe and
// tests call.
package ssdps

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"hps/internal/blockio"
	"hps/internal/embedding"
	"hps/internal/keys"
	"hps/internal/ps"
)

// Config configures the store.
type Config struct {
	// Dim is the embedding dimension of stored values.
	Dim int
	// ParamsPerFile is how many parameters a parameter file holds; it trades
	// SSD bandwidth utilization against read amplification (Appendix E,
	// "we tune the file size to obtain the optimal performance").
	ParamsPerFile int
	// DiskUsageThresholdBytes triggers compaction when the device's live file
	// usage exceeds it; 0 uses the device capacity (or disables the trigger
	// when the device reports no capacity).
	DiskUsageThresholdBytes int64
	// StaleFractionToCompact is the minimum fraction of stale parameters a
	// file must contain to be merged during compaction (0.5 per the paper,
	// bounding disk usage at 1/0.5 = 2x the live size).
	StaleFractionToCompact float64
}

func (c Config) withDefaults() Config {
	if c.Dim <= 0 {
		c.Dim = 8
	}
	if c.ParamsPerFile <= 0 {
		c.ParamsPerFile = 256
	}
	if c.StaleFractionToCompact <= 0 || c.StaleFractionToCompact > 1 {
		c.StaleFractionToCompact = 0.5
	}
	return c
}

// Stats describes the state and activity of the store.
type Stats struct {
	// Files is the number of live parameter files.
	Files int
	// LiveParams is the number of parameters reachable through the mapping.
	LiveParams int64
	// StaleParams is the number of superseded parameter copies still on disk.
	StaleParams int64
	// Compactions counts completed compaction passes.
	Compactions int64
	// CompactedFiles counts files merged away by compaction.
	CompactedFiles int64
	// Loads and Dumps count operations.
	Loads, Dumps int64
	// Rewritten counts the live records compaction copied into new files.
	// The tier statistics count them as pushed keys beside the dumped ones
	// (TierStats().KeysPushed), so pushed minus rewritten is what the tier
	// above dumped, and pushed over that is the write amplification.
	Rewritten int64
	// UsageBytes is the physical disk usage of live files.
	UsageBytes int64
	// DroppedExtents counts the parameter files the last Recover found torn
	// or damaged and left out.
	DroppedExtents int64
}

// fileMeta is one parameter file's entry in Store.files.
type fileMeta struct {
	ext   blockio.Extent // ext.ID is the creation order, ext.Records the records written
	stale int            // records superseded by newer files
	live  bool           // false for a number no file holds
	// load and group number the file among the files of one load: group is
	// its position in the load's list of files when load is that load's
	// number (Stats.Loads once it counted the load). Both belong to s.mu.
	load  int64
	group int32
}

// loc addresses the latest copy of a parameter: record slot of the file
// numbered file in Store.files.
type loc struct {
	file int32
	slot uint32
}

// hdr is the room in front of a parameter file's records that the device
// fills with its extent header.
const hdr = blockio.HeaderBytes

// scratch is the per-operation working memory loads, dumps and compactions
// reuse through Store.scratch.
type scratch struct {
	// buf is one parameter file, as read or as about to be written: the
	// device's extent header, then the records.
	buf []byte
	// A load's requested records in request order, then grouped by file; the
	// files it touches, in the order it first met them; each file's end in
	// the grouped records.
	wants, grouped []want
	files          []blockio.Extent
	ends           []int
	// A dump's rows in key order, and the sort's second buffer.
	order, tmp []int32
}

// want is one requested key of a load that the store holds: the record's
// slot, the load's number for its file, and which position of the request it
// answers.
type want struct {
	slot  uint32
	group int32
	idx   int
}

// Store is an SSD-backed parameter store, the bottom tier of the hierarchy.
// It is safe for concurrent use. Only the MEM-PS above reads and writes it:
// loads read whole parameter files, dumps write the values the MEM-PS
// evicts, and Delete retires keys (there is no tier below to demote to).
type Store struct {
	cfg Config
	dev *blockio.Device
	rec ps.Recorder

	// compactMu admits one compaction pass at a time: two passes would pick
	// the same victims and erase each other's inputs.
	compactMu sync.Mutex
	// fileMu keeps parameter files alive while they are read: a load holds
	// it shared from picking its files (under mu) until its last read
	// returns, and compaction takes it exclusively to erase its victims —
	// the device hands an erased extent to the next dump, so a load still
	// reading one would see its next tenant's bytes. It is ordered after
	// compactMu and before mu and, unlike mu, is held across device I/O.
	fileMu sync.RWMutex

	mu      sync.Mutex
	mapping keys.Table[loc] // parameter -> record holding its latest copy
	// files are the parameter files by number, kept by value so that writing
	// one allocates nothing; the numbers of erased files are in freeFiles for
	// the next files written.
	files     []fileMeta
	freeFiles []int32
	stats     Stats

	stride  int       // bytes per record: 8 of key + the encoded value
	scratch sync.Pool // of *scratch
}

// Open creates a store on top of dev and fixes the device's extent geometry
// to the store's record size and file size. The device may be new (a fresh
// store) or hold a previous run's parameter files of the same geometry:
// Recover rebuilds the mapping from them, and a store that starts dumping
// without it starts empty.
func Open(dev *blockio.Device, cfg Config) (*Store, error) {
	if dev == nil {
		return nil, errors.New("ssdps: nil device")
	}
	cfg = cfg.withDefaults()
	if cfg.DiskUsageThresholdBytes == 0 {
		cfg.DiskUsageThresholdBytes = dev.CapacityBytes()
	}
	s := &Store{
		cfg:    cfg,
		dev:    dev,
		stride: 8 + embedding.EncodedSize(cfg.Dim),
	}
	if err := dev.Format(s.stride, cfg.ParamsPerFile); err != nil {
		return nil, fmt.Errorf("ssdps: open (dimension %d, %d-byte records): %w", cfg.Dim, s.stride, err)
	}
	return s, nil
}

func (s *Store) getScratch() *scratch {
	if sc, ok := s.scratch.Get().(*scratch); ok {
		return sc
	}
	return &scratch{}
}

// addFile enters the file ext in the file table and returns its number. The
// caller must hold s.mu.
func (s *Store) addFile(ext blockio.Extent) int32 {
	f := fileMeta{ext: ext, live: true}
	if n := len(s.freeFiles); n > 0 {
		idx := s.freeFiles[n-1]
		s.freeFiles = s.freeFiles[:n-1]
		s.files[idx] = f
		return idx
	}
	s.files = append(s.files, f)
	return int32(len(s.files) - 1)
}

// dropFile takes file idx out of the file table; its number goes to the next
// file written. No key may map to it any more. The caller must hold s.mu.
func (s *Store) dropFile(idx int32) {
	s.files[idx] = fileMeta{}
	s.freeFiles = append(s.freeFiles, idx)
}

// liveFiles returns how many files the table holds. The caller must hold
// s.mu.
func (s *Store) liveFiles() int { return len(s.files) - len(s.freeFiles) }

// Recover rebuilds the in-memory slot index from scratch with one sequential
// scan of the device's backing file, as when reopening a directory written
// by a previous run. Of the copies of a key the one in the file with the
// highest creation id wins, whatever order the scan meets them in. Parameter
// files that fail their checksum — a dump cut short by the death of the
// process, or damage — are left out whole and returned: the latest
// acknowledged copy of a key always carries the highest id, so a file that
// is dropped (like one compaction already erased) can only have held copies
// that were stale or never acknowledged. A verified file with a record of
// another dimension, and a directory of the per-file layout this store no
// longer reads, are errors.
func (s *Store) Recover() ([]blockio.Dropped, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mapping.Clear()
	s.files, s.freeFiles = s.files[:0], s.freeFiles[:0]
	dropped, err := s.dev.Scan(func(ext blockio.Extent, records []byte) error {
		idx := s.addFile(ext)
		for slot := 0; slot < ext.Records; slot++ {
			rec := records[slot*s.stride:]
			if dim := binary.LittleEndian.Uint32(rec[8:]); int64(dim) != int64(s.cfg.Dim) {
				return fmt.Errorf("%v: record %d has dimension %d, the store has %d", ext, slot, dim, s.cfg.Dim)
			}
			k := keys.Key(binary.LittleEndian.Uint64(rec))
			// Every superseded record is stale in the file that holds it, so
			// one pass leaves each file with stale = total - live.
			prev, ok := s.mapping.Upsert(k)
			if ok && s.files[prev.file].ext.ID > ext.ID {
				s.files[idx].stale++
				continue
			}
			if ok {
				s.files[prev.file].stale++
			}
			*prev = loc{idx, uint32(slot)}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ssdps: recover: %w", err)
	}
	if s.liveFiles() == 0 && len(dropped) == 0 {
		if old, _ := filepath.Glob(filepath.Join(s.dev.Dir(), "pf-*.dat")); len(old) > 0 {
			return nil, fmt.Errorf("ssdps: recover: %s holds %d parameter files of the one-file-each layout (%s, ...) and no extents; this store does not read them",
				s.dev.Dir(), len(old), filepath.Base(old[0]))
		}
	}
	s.stats.DroppedExtents = int64(len(dropped))
	return dropped, nil
}

// Contains reports whether the store holds a value for k.
func (s *Store) Contains(k keys.Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mapping.Has(k)
}

// Len returns the number of live parameters.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mapping.Len()
}

// Sync makes every parameter file written, and every one compaction erased,
// before the call durable against power loss (see blockio.Device.Sync).
func (s *Store) Sync() error { return s.dev.Sync() }

// Name names the tier in reports.
func (s *Store) Name() string { return "ssd-ps" }

// TierStats returns the uniform statistics of the store: pulls cover loads,
// pushes cover dumps and compaction rewrites.
func (s *Store) TierStats() ps.Stats { return s.rec.TierStats() }

// Stats returns a snapshot of the store's statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Files = s.liveFiles()
	st.LiveParams = int64(s.mapping.Len())
	var stale int64
	for _, meta := range s.files {
		stale += int64(meta.stale)
	}
	st.StaleParams = stale
	st.UsageBytes = s.dev.UsageBytes()
	return st
}

// Keys returns every live key (unsorted). Intended for inspection tools and
// tests; the production path never enumerates the full key space.
func (s *Store) Keys() []keys.Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]keys.Key, 0, s.mapping.Len())
	s.mapping.Range(func(k keys.Key, _ loc) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Device returns the underlying block device (for I/O statistics).
func (s *Store) Device() *blockio.Device { return s.dev }
