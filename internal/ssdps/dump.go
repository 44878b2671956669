package ssdps

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"hps/internal/blockio"
	"hps/internal/embedding"
	"hps/internal/keys"
	"hps/internal/ps"
)

// DumpBlock writes the present rows of blk, whose keys must be distinct, to
// the store as new parameter files: in increasing key order (keys.SortPositions,
// the order slices.Sort gives), chunked to ParamsPerFile. It re-points each
// key at its new record with one upsert and marks the copy it superseded
// stale. blk must have the store's dimension; it is only read.
func (s *Store) DumpBlock(blk *ps.ValueBlock) error {
	if blk.Dim != s.cfg.Dim {
		return fmt.Errorf("ssdps: dump: a block of dimension %d, the store has %d", blk.Dim, s.cfg.Dim)
	}
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	n := blk.Len()
	sc.order = slices.Grow(sc.order[:0], n)[:n]
	sc.tmp = slices.Grow(sc.tmp[:0], n)[:n]
	keys.SortPositions(blk.Keys, sc.order, sc.tmp)
	// Keep the present rows, in key order.
	sorted := sc.order[:0]
	for _, i := range sc.order {
		if blk.Present[i] {
			sorted = append(sorted, i)
		}
	}
	if len(sorted) == 0 {
		return nil
	}
	total := len(sorted)

	for len(sorted) > 0 {
		chunk := sorted[:min(s.cfg.ParamsPerFile, len(sorted))]
		sorted = sorted[len(chunk):]
		sc.buf = slices.Grow(sc.buf[:0], hdr+len(chunk)*s.stride)[:hdr+len(chunk)*s.stride]
		for j, i := range chunk {
			rec := sc.buf[hdr+j*s.stride : hdr+(j+1)*s.stride]
			binary.LittleEndian.PutUint64(rec, uint64(blk.Keys[i]))
			embedding.EncodeRow(rec[8:], blk.WeightsRow(int(i)), blk.G2Row(int(i)), blk.Freq[i])
		}
		written, err := s.dev.WriteFile(sc.buf)
		if err != nil {
			return fmt.Errorf("ssdps: dump: %w", err)
		}

		s.mu.Lock()
		idx := s.addFile(written)
		for j, i := range chunk {
			l, ok := s.mapping.Upsert(blk.Keys[i])
			if ok {
				s.files[l.file].stale++
			}
			*l = loc{idx, uint32(j)}
		}
		s.stats.Dumps++
		s.mu.Unlock()
	}
	s.rec.RecordPush(total)
	return nil
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
	var victims []victim
	for i, meta := range s.files {
		if meta.live && float64(meta.stale)/float64(meta.ext.Records) >= s.cfg.StaleFractionToCompact {
			victims = append(victims, victim{int32(i), meta.ext})
		}
	}
	s.mu.Unlock()
	if len(victims) == 0 {
		return nil
	}
	slices.SortFunc(victims, func(a, b victim) int { return cmp.Compare(a.ext.ID, b.ext.ID) })
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
		n += v.ext.Records - s.files[v.idx].stale
	}
	s.mu.Unlock()
	ks := make([]keys.Key, 0, n)
	from := make([]loc, 0, n)
	raw := make([]byte, 0, n*s.stride)
	for _, v := range victims {
		data, _, err := s.dev.ReadInto(v.ext, -1, sc.buf)
		if err != nil {
			return fmt.Errorf("ssdps: compact: %w", err)
		}
		sc.buf = data
		s.mu.Lock()
		for slot := 0; slot < v.ext.Records; slot++ {
			rec := data[hdr+slot*s.stride : hdr+(slot+1)*s.stride]
			k := keys.Key(binary.LittleEndian.Uint64(rec))
			if l := (loc{v.idx, uint32(slot)}); s.mapsTo(k, l) {
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
	for rest := order; len(rest) > 0; {
		chunk := rest[:min(s.cfg.ParamsPerFile, len(rest))]
		rest = rest[len(chunk):]
		sc.buf = sc.buf[:hdr]
		for _, i := range chunk {
			sc.buf = append(sc.buf, raw[int(i)*s.stride:int(i+1)*s.stride]...)
		}
		written, err := s.dev.WriteFile(sc.buf)
		if err != nil {
			return fmt.Errorf("ssdps: compact rewrite: %w", err)
		}

		s.mu.Lock()
		idx := s.addFile(written)
		for slot, i := range chunk {
			if l := s.mapping.Ptr(ks[i]); l != nil && *l == from[i] {
				s.files[from[i].file].stale++
				*l = loc{idx, uint32(slot)}
			} else {
				s.files[idx].stale++
			}
		}
		s.stats.Dumps++
		s.stats.Rewritten += int64(len(chunk))
		s.mu.Unlock()
	}
	if len(ks) > 0 {
		s.rec.RecordPush(len(ks))
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
		s.dropFile(v.idx)
		s.stats.CompactedFiles++
	}
	if err != nil {
		return err
	}
	s.stats.Compactions++
	return nil
}

// victim is a parameter file a compaction merges away: its number and extent.
type victim struct {
	idx int32
	ext blockio.Extent
}

// mapsTo reports whether k maps to l. The caller must hold s.mu.
func (s *Store) mapsTo(k keys.Key, l loc) bool {
	cur, ok := s.mapping.Get(k)
	return ok && cur == l
}
