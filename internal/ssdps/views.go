package ssdps

import (
	"fmt"

	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/ps"
)

// This file holds the map-shaped views of LoadInto and DumpBlock. No product
// path calls them: the benchmark's layer probe times them, and tests use
// them as the plainest statement of the store's contract.

// Load returns the values of the requested keys that exist in the store.
// Whole parameter files are read; the requested parameters are decoded and
// everything else is I/O amplification accounted by the device. Missing keys
// are simply absent from the result.
func (s *Store) Load(ks []keys.Key) (map[keys.Key]*embedding.Value, error) {
	out, _, err := s.LoadTimed(ks)
	return out, err
}

// LoadTimed is Load plus the SSD work of this pass alone. The name is the
// one the benchmark's layer probe calls; it predates counting.
func (s *Store) LoadTimed(ks []keys.Key) (map[keys.Key]*embedding.Value, hw.Work, error) {
	blk := ps.GetBlock(s.cfg.Dim, ks)
	defer ps.PutBlock(blk)
	work, err := s.LoadInto(ks, blk, nil)
	if err != nil {
		return nil, work, err
	}
	out := make(map[keys.Key]*embedding.Value, len(ks))
	for i, k := range ks {
		if blk.Present[i] {
			out[k] = blk.Value(i)
		}
	}
	return out, work, nil
}

// Dump writes the given parameters to the store through DumpBlock. Every
// value must have the store's dimension.
func (s *Store) Dump(vals map[keys.Key]*embedding.Value) error {
	blk := ps.GetBlock(s.cfg.Dim, nil)
	defer ps.PutBlock(blk)
	for k, v := range vals {
		if v.Dim() != s.cfg.Dim {
			return fmt.Errorf("ssdps: dump: key %d has dimension %d, the store has %d", k, v.Dim(), s.cfg.Dim)
		}
		blk.AppendRow(k, v.Weights, v.G2Sum, v.Freq)
	}
	return s.DumpBlock(blk)
}
