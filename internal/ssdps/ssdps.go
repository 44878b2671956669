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
// bytes.
package ssdps

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
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
	// UsageBytes is the physical disk usage of live files.
	UsageBytes int64
}

type fileMeta struct {
	name  string
	id    int64 // creation order
	total int   // records written into the file
	stale int   // records superseded by newer files
}

// loc addresses the latest copy of a parameter: record slot of file.
type loc struct {
	file *fileMeta
	slot uint32
}

// scratch is the per-operation working memory loads, dumps and compactions
// reuse through Store.scratch.
type scratch struct {
	buf   []byte // one parameter file, as read or as about to be written
	wants []want
}

// want is one requested key of a load that the store holds: where its record
// is and which position of the request it answers.
type want struct {
	loc
	idx int
}

// Store is an SSD-backed parameter store. It is safe for concurrent use.
// It implements ps.Tier as the bottom tier of the hierarchy: Pull reads
// whole parameter files, Push is a read-modify-write of delta batches, and
// Evict retires keys (there is no tier below to demote to).
type Store struct {
	cfg Config
	dev *blockio.Device
	rec ps.Recorder

	// pushMu serializes Push's read-modify-write (load, merge, dump) so
	// concurrent pushes of the same key cannot lose each other's deltas.
	pushMu sync.Mutex

	// compactMu admits one compaction pass at a time: two passes would pick
	// the same victims and unlink each other's inputs.
	compactMu sync.Mutex
	// fileMu keeps parameter files alive while they are read: a load holds
	// it shared from picking its files (under mu) until its last read
	// returns, and compaction takes it exclusively to unlink its victims. It
	// is ordered before mu and, unlike mu, is held across device I/O.
	fileMu sync.RWMutex

	mu      sync.Mutex
	nextID  int64
	mapping map[keys.Key]loc     // parameter -> record holding its latest copy
	files   map[string]*fileMeta // file name -> metadata
	stats   Stats

	stride  int       // bytes per record: 8 of key + the encoded value
	scratch sync.Pool // of *scratch
}

var _ ps.Tier = (*Store)(nil)

// Open creates a store on top of dev. The directory may be empty (a fresh
// store) — recovering an existing store's mapping from disk is supported via
// Recover.
func Open(dev *blockio.Device, cfg Config) (*Store, error) {
	if dev == nil {
		return nil, errors.New("ssdps: nil device")
	}
	cfg = cfg.withDefaults()
	if cfg.DiskUsageThresholdBytes == 0 {
		cfg.DiskUsageThresholdBytes = dev.CapacityBytes()
	}
	return &Store{
		cfg:     cfg,
		dev:     dev,
		mapping: make(map[keys.Key]loc),
		files:   make(map[string]*fileMeta),
		stride:  8 + embedding.EncodedSize(cfg.Dim),
	}, nil
}

func (s *Store) getScratch() *scratch {
	if sc, ok := s.scratch.Get().(*scratch); ok {
		return sc
	}
	return &scratch{}
}

// Recover rebuilds the in-memory slot index from scratch by scanning every
// parameter file on the device in creation order (later records supersede
// earlier ones). It is used when reopening a directory written by a previous
// run. A file that is not a whole number of records of the store's dimension
// is reported as an error naming it.
func (s *Store) Recover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.mapping)
	clear(s.files)
	var buf []byte
	for _, name := range s.dev.ListFiles() { // zero-padded ids: lexical order is creation order
		id := parseFileID(name)
		if id < 0 {
			// Not a parameter file: the device directory also hosts other
			// durable state (the shard server's push-dedup seq log).
			continue
		}
		data, err := s.dev.ReadInto(name, -1, buf)
		if err != nil {
			return fmt.Errorf("ssdps: recover %s: %w", name, err)
		}
		buf = data
		if len(data)%s.stride != 0 {
			return fmt.Errorf("ssdps: recover %s: %d bytes is not a whole number of %d-byte records (dimension %d)",
				name, len(data), s.stride, s.cfg.Dim)
		}
		meta := &fileMeta{name: name, id: id, total: len(data) / s.stride}
		for slot := 0; slot < meta.total; slot++ {
			rec := data[slot*s.stride:]
			if dim := binary.LittleEndian.Uint32(rec[8:]); int64(dim) != int64(s.cfg.Dim) {
				return fmt.Errorf("ssdps: recover %s: record %d has dimension %d, the store has %d",
					name, slot, dim, s.cfg.Dim)
			}
			k := keys.Key(binary.LittleEndian.Uint64(rec))
			// Every superseded record is stale in the file that holds it, so
			// one pass leaves each file with stale = total - live.
			if prev, ok := s.mapping[k]; ok {
				prev.file.stale++
			}
			s.mapping[k] = loc{meta, uint32(slot)}
		}
		s.files[name] = meta
		if id >= s.nextID {
			s.nextID = id + 1
		}
	}
	return nil
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
// bytes, which must hold key k at the store's dimension.
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

func parseFileID(name string) int64 {
	var id int64
	_, err := fmt.Sscanf(name, "pf-%d.dat", &id)
	if err != nil {
		return -1
	}
	return id
}

// writeFile writes data, the records of one new parameter file, and returns
// the file's metadata (not yet registered in s.files) and the modelled write
// duration.
func (s *Store) writeFile(data []byte) (*fileMeta, time.Duration, error) {
	s.mu.Lock()
	meta := &fileMeta{name: fmt.Sprintf("pf-%012d.dat", s.nextID), id: s.nextID, total: len(data) / s.stride}
	s.nextID++
	s.mu.Unlock()
	if err := s.dev.WriteFile(meta.name, data); err != nil {
		return nil, 0, err
	}
	return meta, s.dev.Profile().WriteTime(int64(len(data))), nil
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
// read whole, once; only the requested records are decoded.
func (s *Store) LoadInto(ks []keys.Key, dst []*embedding.Value) ([]*embedding.Value, time.Duration, error) {
	dst = slices.Grow(dst[:0], len(ks))[:len(ks)]
	clear(dst)
	sc := s.getScratch()
	defer s.scratch.Put(sc)

	s.fileMu.RLock()
	defer s.fileMu.RUnlock()
	s.mu.Lock()
	wants := sc.wants[:0]
	for i, k := range ks {
		if l, ok := s.mapping[k]; ok {
			wants = append(wants, want{l, i})
		}
	}
	s.stats.Loads++
	s.mu.Unlock()
	sc.wants = wants
	found := len(wants)

	// Group the requested records by the file that holds them.
	slices.SortFunc(wants, func(a, b want) int {
		if c := cmp.Compare(a.file.id, b.file.id); c != 0 {
			return c
		}
		return cmp.Compare(a.slot, b.slot)
	})
	var readTime time.Duration
	for len(wants) > 0 {
		file, n := wants[0].file, 1
		for n < len(wants) && wants[n].file == file {
			n++
		}
		data, err := s.dev.ReadInto(file.name, int64(n)*int64(s.stride), sc.buf)
		if err != nil {
			return nil, 0, fmt.Errorf("ssdps: load: %w", err)
		}
		sc.buf = data
		// Mirror the device's charge (whole-file read) for per-tier stats.
		readTime += s.dev.Profile().ReadTime(int64(len(data)))
		for _, w := range wants[:n] {
			if dst[w.idx], err = s.decodeSlot(data, w.slot, ks[w.idx]); err != nil {
				return nil, 0, fmt.Errorf("ssdps: load %s: %w", file.name, err)
			}
		}
		wants = wants[n:]
	}
	s.rec.RecordPull(found, readTime)
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
		sc.buf = slices.Grow(sc.buf[:0], len(chunk)*s.stride)[:len(chunk)*s.stride]
		for i, k := range chunk {
			rec := sc.buf[i*s.stride : (i+1)*s.stride]
			binary.LittleEndian.PutUint64(rec, uint64(k))
			vals[k].Encode(rec[8:])
		}
		written, d, err := s.writeFile(sc.buf)
		if err != nil {
			return fmt.Errorf("ssdps: dump: %w", err)
		}
		writeTime += d

		s.mu.Lock()
		s.files[written.name] = written
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

// Name implements ps.Tier.
func (s *Store) Name() string { return "ssd-ps" }

// TierStats implements ps.Tier. Pulls cover Load, pushes cover both Dump
// (absolute writes from the tier above) and Push (delta merges).
func (s *Store) TierStats() ps.Stats { return s.rec.TierStats() }

// Pull implements ps.Tier: a batched Load. Missing keys are absent.
func (s *Store) Pull(req ps.PullRequest) (ps.Result, error) {
	out, err := s.Load(req.Keys)
	if err != nil {
		return nil, err
	}
	return ps.Result(out), nil
}

// Push implements ps.Tier: it merges per-key deltas into the stored values
// with a read-modify-write pass — existing values are loaded, deltas added
// (unknown keys materialize as fresh values equal to their delta), and the
// results dumped as new parameter files.
func (s *Store) Push(req ps.PushRequest) error {
	if len(req.Deltas) == 0 {
		return nil
	}
	s.pushMu.Lock()
	defer s.pushMu.Unlock()
	ks := make([]keys.Key, 0, len(req.Deltas))
	for k := range req.Deltas {
		ks = append(ks, k)
	}
	existing, err := s.Load(ks)
	if err != nil {
		return fmt.Errorf("ssdps: push: %w", err)
	}
	merged := make(map[keys.Key]*embedding.Value, len(req.Deltas))
	ps.ApplyDeltas(req.Deltas, func(k keys.Key, delta *embedding.Value) bool {
		if v, ok := existing[k]; ok {
			v.Add(delta) // Load returned a private decoded copy
			merged[k] = v
		} else {
			merged[k] = delta.Clone()
		}
		return true
	})
	return s.Dump(merged)
}

// Evict implements ps.Tier. The SSD-PS is the bottom tier — there is no
// tier below to demote to — so evicting specific keys retires them from the
// store (their on-disk copies become stale and are reclaimed by compaction),
// and a nil slice reclaims stale space via a compaction pass without
// dropping any live parameter.
func (s *Store) Evict(ks []keys.Key) (int, error) {
	if ks == nil {
		if err := s.Compact(); err != nil {
			return 0, err
		}
		s.rec.RecordEvict(0)
		return 0, nil
	}
	n := s.Delete(ks)
	s.rec.RecordEvict(n)
	return n, nil
}

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
		if meta.total == 0 || float64(meta.stale)/float64(meta.total) >= s.cfg.StaleFractionToCompact {
			victims = append(victims, meta)
		}
	}
	s.mu.Unlock()
	if len(victims) == 0 {
		return nil
	}
	slices.SortFunc(victims, func(a, b *fileMeta) int { return cmp.Compare(a.id, b.id) })
	sc := s.getScratch()
	defer s.scratch.Put(sc)

	// Collect the live records of every victim file.
	type liveRec struct {
		key  keys.Key
		from loc
		off  int // of the record's bytes in raw
	}
	var live []liveRec
	var raw []byte
	for _, v := range victims {
		data, err := s.dev.ReadInto(v.name, -1, sc.buf)
		if err != nil {
			return fmt.Errorf("ssdps: compact read %s: %w", v.name, err)
		}
		sc.buf = data
		if len(data) < v.total*s.stride {
			return fmt.Errorf("ssdps: compact read %s: %d bytes, want %d records of %d", v.name, len(data), v.total, s.stride)
		}
		s.mu.Lock()
		for slot := 0; slot < v.total; slot++ {
			rec := data[slot*s.stride : (slot+1)*s.stride]
			k := keys.Key(binary.LittleEndian.Uint64(rec))
			if from := (loc{v, uint32(slot)}); s.mapping[k] == from {
				live = append(live, liveRec{k, from, len(raw)})
				raw = append(raw, rec...)
			}
		}
		s.mu.Unlock()
	}
	slices.SortFunc(live, func(a, b liveRec) int { return cmp.Compare(a.key, b.key) })

	// Rewrite them as fresh files, marking the victims' copies stale.
	var writeTime time.Duration
	for rest := live; len(rest) > 0; {
		chunk := rest[:min(s.cfg.ParamsPerFile, len(rest))]
		rest = rest[len(chunk):]
		sc.buf = sc.buf[:0]
		for _, r := range chunk {
			sc.buf = append(sc.buf, raw[r.off:r.off+s.stride]...)
		}
		written, d, err := s.writeFile(sc.buf)
		if err != nil {
			return fmt.Errorf("ssdps: compact rewrite: %w", err)
		}
		writeTime += d

		s.mu.Lock()
		s.files[written.name] = written
		for i, r := range chunk {
			if s.mapping[r.key] == r.from {
				r.from.file.stale++
				s.mapping[r.key] = loc{written, uint32(i)}
			} else {
				written.stale++
			}
		}
		s.stats.Dumps++
		s.mu.Unlock()
	}
	if len(live) > 0 {
		s.rec.RecordPush(len(live), writeTime)
	}

	// Erase the victims. No key maps to them any more, so only loads that
	// picked their files before the rewrite can still be reading them;
	// taking fileMu exclusively waits those out.
	s.fileMu.Lock()
	erased := 0
	var err error
	for _, v := range victims {
		if err = s.dev.Remove(v.name); err != nil {
			err = fmt.Errorf("ssdps: compact erase %s: %w", v.name, err)
			break
		}
		erased++
	}
	s.fileMu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range victims[:erased] {
		delete(s.files, v.name)
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
