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
package ssdps

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
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
	total int // parameters written into the file
	stale int // parameters superseded by newer files
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
	mapping map[keys.Key]string  // parameter -> file name
	files   map[string]*fileMeta // file name -> metadata
	stats   Stats
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
		mapping: make(map[keys.Key]string),
		files:   make(map[string]*fileMeta),
	}, nil
}

// Recover rebuilds the in-memory parameter-to-file mapping by scanning every
// parameter file on the device in creation order (later files supersede
// earlier ones). It is used when reopening a directory written by a previous
// run.
func (s *Store) Recover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := s.dev.ListFiles()
	sort.Strings(names) // zero-padded ids sort in creation order
	for _, name := range names {
		if parseFileID(name) < 0 {
			// Not a parameter file: the device directory also hosts other
			// durable state (the shard server's push-dedup seq log).
			continue
		}
		data, err := s.dev.ReadFile(name)
		if err != nil {
			return fmt.Errorf("ssdps: recover %s: %w", name, err)
		}
		recs, err := decodeFile(data)
		if err != nil {
			return fmt.Errorf("ssdps: recover %s: %w", name, err)
		}
		meta := &fileMeta{name: name, total: len(recs)}
		for _, r := range recs {
			if prev, ok := s.mapping[r.key]; ok {
				s.files[prev].stale++
			}
			s.mapping[r.key] = name
		}
		s.files[name] = meta
		if id := parseFileID(name); id >= s.nextID {
			s.nextID = id + 1
		}
	}
	// Recompute stale counts consistently.
	for _, meta := range s.files {
		live := 0
		for k, f := range s.mapping {
			_ = k
			if f == meta.name {
				live++
			}
		}
		meta.stale = meta.total - live
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

// record is one (key, value) entry in a parameter file.
type record struct {
	key   keys.Key
	value *embedding.Value
}

func encodeFile(recs []record) []byte {
	var buf []byte
	var scratch [8]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(scratch[:], uint64(r.key))
		buf = append(buf, scratch[:]...)
		buf = r.value.AppendEncode(buf)
	}
	return buf
}

func decodeFile(data []byte) ([]record, error) {
	var out []record
	off := 0
	for off < len(data) {
		if off+8 > len(data) {
			return nil, fmt.Errorf("ssdps: truncated key at offset %d", off)
		}
		k := keys.Key(binary.LittleEndian.Uint64(data[off : off+8]))
		off += 8
		v, n, err := embedding.Decode(data[off:])
		if err != nil {
			return nil, fmt.Errorf("ssdps: decode value at offset %d: %w", off, err)
		}
		off += n
		out = append(out, record{key: k, value: v})
	}
	return out, nil
}

func parseFileID(name string) int64 {
	var id int64
	_, err := fmt.Sscanf(name, "pf-%d.dat", &id)
	if err != nil {
		return -1
	}
	return id
}

func (s *Store) newFileName() string {
	name := fmt.Sprintf("pf-%012d.dat", s.nextID)
	s.nextID++
	return name
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
// Callers attributing per-operation time (MEM-PS pull statistics) use it
// instead of diffing the shared clock, whose SSD total mixes in concurrent
// operations from other pipeline stages and nodes.
func (s *Store) LoadTimed(ks []keys.Key) (map[keys.Key]*embedding.Value, time.Duration, error) {
	s.fileMu.RLock()
	defer s.fileMu.RUnlock()
	s.mu.Lock()
	// Group requested keys by the file that holds their latest version.
	byFile := make(map[string][]keys.Key)
	for _, k := range ks {
		if name, ok := s.mapping[k]; ok {
			byFile[name] = append(byFile[name], k)
		}
	}
	s.stats.Loads++
	s.mu.Unlock()

	out := make(map[keys.Key]*embedding.Value, len(ks))
	var readTime time.Duration
	for name, wanted := range byFile {
		wantedBytes := int64(len(wanted)) * int64(8+embedding.EncodedSize(s.cfg.Dim))
		data, err := s.dev.ReadPartial(name, wantedBytes)
		if err != nil {
			return nil, 0, fmt.Errorf("ssdps: load: %w", err)
		}
		// Mirror the device's charge (whole-file read) for per-tier stats.
		readTime += s.dev.Profile().ReadTime(int64(len(data)))
		recs, err := decodeFile(data)
		if err != nil {
			return nil, 0, fmt.Errorf("ssdps: load %s: %w", name, err)
		}
		wantedSet := make(map[keys.Key]bool, len(wanted))
		for _, k := range wanted {
			wantedSet[k] = true
		}
		for _, r := range recs {
			if wantedSet[r.key] {
				// Only accept the record if this file is still the mapped
				// owner of the key (it is, we grouped by mapping), and prefer
				// the last occurrence within the file.
				out[r.key] = r.value
			}
		}
	}
	s.rec.RecordPull(len(out), readTime)
	return out, readTime, nil
}

// Dump writes the given parameters to the store as new parameter files
// (chunked to ParamsPerFile), updates the parameter-to-file mapping, and
// marks superseded copies stale. Keys are written in sorted order so dumps
// are deterministic.
func (s *Store) Dump(vals map[keys.Key]*embedding.Value) error {
	return s.dump(vals, nil)
}

// dump is Dump, and with from non-nil also compaction's rewrite: from names
// the victim file each value was collected from, and a key is re-pointed at
// its rewritten copy only while it still maps to that file. A Dump or Delete
// that raced the compaction is newer than the collected value, so the
// rewritten copy of such a key is born stale instead of superseding it.
func (s *Store) dump(vals map[keys.Key]*embedding.Value, from map[keys.Key]string) error {
	if len(vals) == 0 {
		return nil
	}
	sorted := make([]keys.Key, 0, len(vals))
	for k := range vals {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var writeTime time.Duration
	for start := 0; start < len(sorted); start += s.cfg.ParamsPerFile {
		end := start + s.cfg.ParamsPerFile
		if end > len(sorted) {
			end = len(sorted)
		}
		chunk := sorted[start:end]
		recs := make([]record, 0, len(chunk))
		for _, k := range chunk {
			recs = append(recs, record{key: k, value: vals[k]})
		}

		s.mu.Lock()
		name := s.newFileName()
		s.mu.Unlock()

		encoded := encodeFile(recs)
		if err := s.dev.WriteFile(name, encoded); err != nil {
			return fmt.Errorf("ssdps: dump: %w", err)
		}
		writeTime += s.dev.Profile().WriteTime(int64(len(encoded)))

		s.mu.Lock()
		written := &fileMeta{name: name, total: len(recs)}
		s.files[name] = written
		for _, k := range chunk {
			prev, ok := s.mapping[k]
			if from != nil && (!ok || prev != from[k]) {
				written.stale++
				continue
			}
			if meta := s.files[prev]; ok && meta != nil {
				meta.stale++
			}
			s.mapping[k] = name
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
		name, ok := s.mapping[k]
		if !ok {
			continue
		}
		delete(s.mapping, k)
		if meta, ok := s.files[name]; ok {
			meta.stale++
		}
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
// threshold: live parameters are collected and rewritten as new files, then
// the old files are erased and the mapping updated (Appendix E).
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	victims := make([]*fileMeta, 0)
	for _, meta := range s.files {
		if meta.total == 0 {
			victims = append(victims, meta)
			continue
		}
		if float64(meta.stale)/float64(meta.total) >= s.cfg.StaleFractionToCompact {
			victims = append(victims, meta)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].name < victims[j].name })
	victimSet := make(map[string]bool, len(victims))
	for _, v := range victims {
		victimSet[v.name] = true
	}
	s.mu.Unlock()

	if len(victims) == 0 {
		return nil
	}

	// Collect the live parameters of every victim file.
	live := make(map[keys.Key]*embedding.Value)
	from := make(map[keys.Key]string)
	for _, v := range victims {
		data, err := s.dev.ReadFile(v.name)
		if err != nil {
			return fmt.Errorf("ssdps: compact read %s: %w", v.name, err)
		}
		recs, err := decodeFile(data)
		if err != nil {
			return fmt.Errorf("ssdps: compact decode %s: %w", v.name, err)
		}
		s.mu.Lock()
		for _, r := range recs {
			if s.mapping[r.key] == v.name {
				live[r.key] = r.value
				from[r.key] = v.name
			}
		}
		s.mu.Unlock()
	}

	// Rewrite the live parameters as fresh files (this also updates the
	// mapping and marks the victims' remaining copies stale).
	if err := s.dump(live, from); err != nil {
		return fmt.Errorf("ssdps: compact rewrite: %w", err)
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
