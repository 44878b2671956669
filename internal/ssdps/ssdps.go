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
// asked for out of the file it read, and compaction moves live records as raw
// bytes. On disk a parameter file is an extent of the device's one backing
// file (see blockio), which numbers the files in creation order and
// checksums them.
package ssdps

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

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

type fileMeta struct {
	ext   blockio.Extent // ext.ID is the creation order, ext.Records the records written
	stale int            // records superseded by newer files
	// load and group number the file among the files of one load: group is
	// its position in the load's list of files when load is that load's
	// number (Stats.Loads once it counted the load). Both belong to s.mu.
	load  int64
	group int32
}

// loc addresses the latest copy of a parameter: record slot of file.
type loc struct {
	file *fileMeta
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
	files          []*fileMeta
	ends           []int
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
	mapping map[keys.Key]loc     // parameter -> record holding its latest copy
	files   map[uint64]*fileMeta // creation id -> metadata
	stats   Stats

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
		cfg:     cfg,
		dev:     dev,
		mapping: make(map[keys.Key]loc),
		files:   make(map[uint64]*fileMeta),
		stride:  8 + embedding.EncodedSize(cfg.Dim),
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
	clear(s.mapping)
	clear(s.files)
	dropped, err := s.dev.Scan(func(ext blockio.Extent, records []byte) error {
		meta := &fileMeta{ext: ext}
		for slot := 0; slot < ext.Records; slot++ {
			rec := records[slot*s.stride:]
			if dim := binary.LittleEndian.Uint32(rec[8:]); int64(dim) != int64(s.cfg.Dim) {
				return fmt.Errorf("%v: record %d has dimension %d, the store has %d", ext, slot, dim, s.cfg.Dim)
			}
			k := keys.Key(binary.LittleEndian.Uint64(rec))
			// Every superseded record is stale in the file that holds it, so
			// one pass leaves each file with stale = total - live.
			prev, ok := s.mapping[k]
			if ok && prev.file.ext.ID > ext.ID {
				meta.stale++
				continue
			}
			if ok {
				prev.file.stale++
			}
			s.mapping[k] = loc{meta, uint32(slot)}
		}
		s.files[ext.ID] = meta
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ssdps: recover: %w", err)
	}
	if len(s.files) == 0 && len(dropped) == 0 {
		if old, _ := filepath.Glob(filepath.Join(s.dev.Dir(), "pf-*.dat")); len(old) > 0 {
			return nil, fmt.Errorf("ssdps: recover: %s holds %d parameter files of the one-file-each layout (%s, ...) and no extents; this store does not read them",
				s.dev.Dir(), len(old), filepath.Base(old[0]))
		}
	}
	s.stats.DroppedExtents = int64(len(dropped))
	return dropped, nil
}

// Dim returns the embedding dimension of stored values.
func (s *Store) Dim() int { return s.cfg.Dim }

// Contains reports whether the store holds a value for k.
func (s *Store) Contains(k keys.Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.mapping[k]
	return ok
}

// Len returns the number of live parameters.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mapping)
}

// decodeSlot decodes the record in the given slot of a parameter file's
// records, which must hold key k at the store's dimension.
func (s *Store) decodeSlot(data []byte, slot uint32, k keys.Key) (*embedding.Value, error) {
	off := int(slot) * s.stride
	if off+s.stride > len(data) {
		return nil, fmt.Errorf("record %d lies beyond the file's %d bytes", slot, len(data))
	}
	rec := data[off : off+s.stride]
	if got := keys.Key(binary.LittleEndian.Uint64(rec)); got != k {
		return nil, fmt.Errorf("record %d holds key %d, the index says %d", slot, got, k)
	}
	v, _, err := embedding.Decode(rec[8:])
	if err != nil {
		return nil, fmt.Errorf("record %d: %w", slot, err)
	}
	if v.Dim() != s.cfg.Dim {
		return nil, fmt.Errorf("record %d has dimension %d, the store has %d", slot, v.Dim(), s.cfg.Dim)
	}
	return v, nil
}

// writeFile writes buf — room for the device's header, then the records of
// one new parameter file — and returns the file's metadata (not yet
// registered in s.files) and the modelled write duration.
func (s *Store) writeFile(buf []byte) (*fileMeta, time.Duration, error) {
	ext, err := s.dev.WriteFile(buf)
	if err != nil {
		return nil, 0, err
	}
	return &fileMeta{ext: ext}, s.dev.Profile().WriteTime(int64(len(buf) - hdr)), nil
}

// Load returns the values of the requested keys that exist in the store.
// Whole parameter files are read; the requested parameters are decoded and
// everything else is I/O amplification accounted by the device. Missing keys
// are simply absent from the result.
func (s *Store) Load(ks []keys.Key) (map[keys.Key]*embedding.Value, error) {
	out, _, err := s.LoadTimed(ks)
	return out, err
}

// LoadTimed is Load plus the modelled read duration of this pass alone.
// Callers attributing per-operation time use it instead of diffing the shared
// clock, whose SSD total mixes in concurrent operations from other pipeline
// stages and nodes.
func (s *Store) LoadTimed(ks []keys.Key) (map[keys.Key]*embedding.Value, time.Duration, error) {
	vals, readTime, err := s.LoadInto(ks, nil)
	if err != nil {
		return nil, 0, err
	}
	out := make(map[keys.Key]*embedding.Value, len(ks))
	for i, v := range vals {
		if v != nil {
			out[ks[i]] = v
		}
	}
	return out, readTime, nil
}

// LoadInto is the positional load every other form is a view of: it returns
// dst resized to len(ks) (nil allocates), with dst[i] a private decoded copy
// of ks[i]'s value or nil when the store does not hold the key, plus the
// modelled read duration of this pass. Every file holding a requested key is
// read whole, once, in the order the request first names it; only the
// requested records are decoded.
func (s *Store) LoadInto(ks []keys.Key, dst []*embedding.Value) ([]*embedding.Value, time.Duration, error) {
	dst = slices.Grow(dst[:0], len(ks))[:len(ks)]
	clear(dst)
	sc := s.getScratch()
	defer s.scratch.Put(sc)

	// Number the files the request touches while looking its keys up, so
	// that one counting pass can group the records by file.
	s.fileMu.RLock()
	defer s.fileMu.RUnlock()
	s.mu.Lock()
	s.stats.Loads++
	load := s.stats.Loads
	wants, files := sc.wants[:0], sc.files[:0]
	for i, k := range ks {
		l, ok := s.mapping[k]
		if !ok {
			continue
		}
		if f := l.file; f.load != load {
			f.load, f.group = load, int32(len(files))
			files = append(files, f)
		}
		wants = append(wants, want{l.slot, l.file.group, i})
	}
	s.mu.Unlock()
	sc.wants = wants
	defer clear(files) // the pooled scratch must not keep erased files alive
	sc.files = files

	// Count each file's records, then scatter them into place: ends[g] runs
	// from file g's start to its end.
	ends := slices.Grow(sc.ends[:0], len(files))[:len(files)]
	clear(ends)
	for _, w := range wants {
		ends[w.group]++
	}
	start := 0
	for g, n := range ends {
		ends[g], start = start, start+n
	}
	grouped := slices.Grow(sc.grouped[:0], len(wants))[:len(wants)]
	for _, w := range wants {
		grouped[ends[w.group]] = w
		ends[w.group]++
	}
	sc.ends, sc.grouped = ends, grouped

	var readTime time.Duration
	start = 0
	for g, file := range files {
		group := grouped[start:ends[g]]
		start = ends[g]
		data, err := s.dev.ReadInto(file.ext, int64(len(group))*int64(s.stride), sc.buf)
		if err != nil {
			return nil, 0, fmt.Errorf("ssdps: load: %w", err)
		}
		sc.buf = data
		records := data[hdr:]
		// Mirror the device's charge (whole-file read) for per-tier stats.
		readTime += s.dev.Profile().ReadTime(int64(len(records)))
		for _, w := range group {
			if dst[w.idx], err = s.decodeSlot(records, w.slot, ks[w.idx]); err != nil {
				return nil, 0, fmt.Errorf("ssdps: load %v: %w", file.ext, err)
			}
		}
	}
	s.rec.RecordPull(len(wants), readTime)
	return dst, readTime, nil
}

// Dump writes the given parameters to the store as new parameter files
// (chunked to ParamsPerFile), updates the slot index, and marks superseded
// copies stale. Keys are written in sorted order so dumps are deterministic.
// Every value must have the store's dimension.
func (s *Store) Dump(vals map[keys.Key]*embedding.Value) error {
	if len(vals) == 0 {
		return nil
	}
	sorted := make([]keys.Key, 0, len(vals))
	for k, v := range vals {
		if v.Dim() != s.cfg.Dim {
			return fmt.Errorf("ssdps: dump: key %d has dimension %d, the store has %d", k, v.Dim(), s.cfg.Dim)
		}
		sorted = append(sorted, k)
	}
	slices.Sort(sorted)
	sc := s.getScratch()
	defer s.scratch.Put(sc)

	var writeTime time.Duration
	for len(sorted) > 0 {
		chunk := sorted[:min(s.cfg.ParamsPerFile, len(sorted))]
		sorted = sorted[len(chunk):]
		sc.buf = slices.Grow(sc.buf[:0], hdr+len(chunk)*s.stride)[:hdr+len(chunk)*s.stride]
		for i, k := range chunk {
			rec := sc.buf[hdr+i*s.stride : hdr+(i+1)*s.stride]
			binary.LittleEndian.PutUint64(rec, uint64(k))
			vals[k].Encode(rec[8:])
		}
		written, d, err := s.writeFile(sc.buf)
		if err != nil {
			return fmt.Errorf("ssdps: dump: %w", err)
		}
		writeTime += d

		s.mu.Lock()
		s.files[written.ext.ID] = written
		for i, k := range chunk {
			if prev, ok := s.mapping[k]; ok {
				prev.file.stale++
			}
			s.mapping[k] = loc{written, uint32(i)}
		}
		s.stats.Dumps++
		s.mu.Unlock()
	}
	s.rec.RecordPush(len(vals), writeTime)
	return nil
}

// Sync makes every parameter file written, and every one compaction erased,
// before the call durable against power loss (see blockio.Device.Sync).
func (s *Store) Sync() error { return s.dev.Sync() }

// Name names the tier in reports.
func (s *Store) Name() string { return "ssd-ps" }

// TierStats returns the uniform statistics of the store: pulls cover loads,
// pushes cover dumps and compaction rewrites.
func (s *Store) TierStats() ps.Stats { return s.rec.TierStats() }

// Delete retires the given keys: their mapping entries are removed and
// their latest on-disk copies become stale. It returns how many keys were
// live. Production systems recycle feature ids this way; the disk space is
// reclaimed by the next compaction pass.
func (s *Store) Delete(ks []keys.Key) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range ks {
		l, ok := s.mapping[k]
		if !ok {
			continue
		}
		delete(s.mapping, k)
		l.file.stale++
		n++
	}
	return n
}

// NeedsCompaction reports whether live disk usage exceeds the configured
// threshold.
func (s *Store) NeedsCompaction() bool {
	if s.cfg.DiskUsageThresholdBytes <= 0 {
		return false
	}
	return s.dev.UsageBytes() > s.cfg.DiskUsageThresholdBytes
}

// CompactIfNeeded runs a compaction pass when NeedsCompaction reports true.
// It returns whether a pass ran.
func (s *Store) CompactIfNeeded() (bool, error) {
	if !s.NeedsCompaction() {
		return false, nil
	}
	return true, s.Compact()
}

// Compact merges every file whose stale fraction meets the configured
// threshold: the live records are collected as raw bytes and rewritten,
// sorted by key, as new files, then the old files are erased (Appendix E).
//
// A key is re-pointed at its rewritten copy only while it still maps to the
// victim record it was collected from. A Dump or Delete that raced the
// compaction is newer than the collected copy, so the rewritten copy of such
// a key is born stale instead of superseding it.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	var victims []*fileMeta
	for _, meta := range s.files {
		if float64(meta.stale)/float64(meta.ext.Records) >= s.cfg.StaleFractionToCompact {
			victims = append(victims, meta)
		}
	}
	s.mu.Unlock()
	if len(victims) == 0 {
		return nil
	}
	slices.SortFunc(victims, func(a, b *fileMeta) int { return cmp.Compare(a.ext.ID, b.ext.ID) })
	sc := s.getScratch()
	defer s.scratch.Put(sc)

	// Collect the live records of every victim file: the i-th one's key is
	// ks[i], its bytes are the i-th record of raw and it was collected from
	// from[i].
	//
	// Size the buffers once: a victim's live count can only fall while the
	// pass runs (dumps mark records stale), so this bounds what is collected,
	// and a pass over megabytes of records leaves no trail of outgrown
	// buffers for the collector.
	s.mu.Lock()
	n := 0
	for _, v := range victims {
		n += v.ext.Records - v.stale
	}
	s.mu.Unlock()
	ks := make([]keys.Key, 0, n)
	from := make([]loc, 0, n)
	raw := make([]byte, 0, n*s.stride)
	for _, v := range victims {
		data, err := s.dev.ReadInto(v.ext, -1, sc.buf)
		if err != nil {
			return fmt.Errorf("ssdps: compact: %w", err)
		}
		sc.buf = data
		s.mu.Lock()
		for slot := 0; slot < v.ext.Records; slot++ {
			rec := data[hdr+slot*s.stride : hdr+(slot+1)*s.stride]
			k := keys.Key(binary.LittleEndian.Uint64(rec))
			if l := (loc{v, uint32(slot)}); s.mapping[k] == l {
				ks = append(ks, k)
				from = append(from, l)
				raw = append(raw, rec...)
			}
		}
		s.mu.Unlock()
	}
	order := make([]int32, len(ks))
	keys.SortPositions(ks, order, make([]int32, len(ks)))

	// Rewrite them in key order as fresh files, marking the victims' copies
	// stale.
	var writeTime time.Duration
	for rest := order; len(rest) > 0; {
		chunk := rest[:min(s.cfg.ParamsPerFile, len(rest))]
		rest = rest[len(chunk):]
		sc.buf = sc.buf[:hdr]
		for _, i := range chunk {
			sc.buf = append(sc.buf, raw[int(i)*s.stride:int(i+1)*s.stride]...)
		}
		written, d, err := s.writeFile(sc.buf)
		if err != nil {
			return fmt.Errorf("ssdps: compact rewrite: %w", err)
		}
		writeTime += d

		s.mu.Lock()
		s.files[written.ext.ID] = written
		for slot, i := range chunk {
			if k := ks[i]; s.mapping[k] == from[i] {
				from[i].file.stale++
				s.mapping[k] = loc{written, uint32(slot)}
			} else {
				written.stale++
			}
		}
		s.stats.Dumps++
		s.stats.Rewritten += int64(len(chunk))
		s.mu.Unlock()
	}
	if len(ks) > 0 {
		s.rec.RecordPush(len(ks), writeTime)
	}

	// Erase the victims. No key maps to them any more, so only loads that
	// picked their files before the rewrite can still be reading them;
	// taking fileMu exclusively waits those out, and only then does the
	// device get the extents back to hand to later dumps.
	s.fileMu.Lock()
	erased := 0
	var err error
	for _, v := range victims {
		if err = s.dev.Remove(v.ext); err != nil {
			err = fmt.Errorf("ssdps: compact erase: %w", err)
			break
		}
		erased++
	}
	s.fileMu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range victims[:erased] {
		delete(s.files, v.ext.ID)
		s.stats.CompactedFiles++
	}
	if err != nil {
		return err
	}
	s.stats.Compactions++
	return nil
}

// Stats returns a snapshot of the store's statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Files = len(s.files)
	st.LiveParams = int64(len(s.mapping))
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
	out := make([]keys.Key, 0, len(s.mapping))
	for k := range s.mapping {
		out = append(out, k)
	}
	return out
}

// Device returns the underlying block device (for I/O statistics).
func (s *Store) Device() *blockio.Device { return s.dev }
