package ssdps

import (
	"encoding/binary"
	"fmt"
	"slices"

	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/ps"
)

// LoadInto loads the stored values of ks into rows of dst: ks[i]'s value is
// decoded into row rows[i] (row i when rows is nil), which is marked
// present, and the rows of keys the store does not hold are left as they
// are. dst must have the store's dimension and the rows; its keys are not
// consulted. It returns the SSD work of this pass: every file holding a
// requested key is read whole, once, in the order the request first names
// it; only the requested records are decoded, and nothing is allocated once
// the store's scratch has grown to the request.
func (s *Store) LoadInto(ks []keys.Key, dst *ps.ValueBlock, rows []int32) (hw.Work, error) {
	var work hw.Work
	if dst.Dim != s.cfg.Dim {
		return work, fmt.Errorf("ssdps: load into a block of dimension %d, the store has %d", dst.Dim, s.cfg.Dim)
	}
	if rows != nil && len(rows) != len(ks) {
		return work, fmt.Errorf("ssdps: load of %d keys into %d rows", len(ks), len(rows))
	}
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
		l, ok := s.mapping.Get(k)
		if !ok {
			continue
		}
		f := &s.files[l.file]
		if f.load != load {
			f.load, f.group = load, int32(len(files))
			files = append(files, f.ext)
		}
		wants = append(wants, want{l.slot, f.group, i})
	}
	s.mu.Unlock()
	sc.wants, sc.files = wants, files

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

	start = 0
	for g, ext := range files {
		group := grouped[start:ends[g]]
		start = ends[g]
		data, read, err := s.dev.ReadInto(ext, int64(len(group))*int64(s.stride), sc.buf)
		if err != nil {
			return work, fmt.Errorf("ssdps: load: %w", err)
		}
		sc.buf = data
		work.Add(read)
		records := data[hdr:]
		for _, w := range group {
			row := w.idx
			if rows != nil {
				row = int(rows[w.idx])
			}
			if err := s.decodeSlot(records, w.slot, ks[w.idx], dst, row); err != nil {
				return work, fmt.Errorf("ssdps: load %v: %w", ext, err)
			}
		}
	}
	s.rec.RecordPull(len(wants))
	return work, nil
}

// decodeSlot decodes the record in the given slot of a parameter file's
// records, which must hold key k at the store's dimension, into row of dst.
func (s *Store) decodeSlot(data []byte, slot uint32, k keys.Key, dst *ps.ValueBlock, row int) error {
	off := int(slot) * s.stride
	if off+s.stride > len(data) {
		return fmt.Errorf("record %d lies beyond the file's %d bytes", slot, len(data))
	}
	rec := data[off : off+s.stride]
	if got := keys.Key(binary.LittleEndian.Uint64(rec)); got != k {
		return fmt.Errorf("record %d holds key %d, the index says %d", slot, got, k)
	}
	freq, _, err := embedding.DecodeRow(rec[8:], dst.WeightsRow(row), dst.G2Row(row))
	if err != nil {
		return fmt.Errorf("record %d: %w", slot, err)
	}
	dst.Freq[row], dst.Present[row] = freq, true
	return nil
}
