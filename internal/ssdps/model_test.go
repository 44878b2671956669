package ssdps

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hps/internal/blockio"
	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/keys"
)

// stamped is the value of key k at the given version: every field is a
// function of (k, version), so a record copied from the wrong slot, file or
// version cannot pass for the right one.
func stamped(dim int, k keys.Key, version uint32) *embedding.Value {
	v := embedding.NewValue(dim)
	for i := range v.Weights {
		v.Weights[i] = float32(uint64(k)*131+uint64(version)*7+uint64(i)) / 3
		v.G2Sum[i] = -v.Weights[i] / 7
	}
	v.Freq = version
	return v
}

// sameBits reports whether two values are bit-for-bit equal.
func sameBits(a, b *embedding.Value) bool {
	if a == nil || b == nil || a.Freq != b.Freq || len(a.Weights) != len(b.Weights) || len(a.G2Sum) != len(b.G2Sum) {
		return false
	}
	for i := range a.Weights {
		if math.Float32bits(a.Weights[i]) != math.Float32bits(b.Weights[i]) ||
			math.Float32bits(a.G2Sum[i]) != math.Float32bits(b.G2Sum[i]) {
			return false
		}
	}
	return true
}

func openDir(t testing.TB, dir string, cfg Config) *Store {
	t.Helper()
	dev, err := blockio.NewDevice(dir, hw.SSD{BlockBytes: 4096}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recordsOnDisk counts the records of every parameter file in dir.
func recordsOnDisk(t *testing.T, dir string, stride int) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size() / int64(stride)
	}
	return n
}

// TestStoreMatchesModel drives seeded random Dump / Load / Delete / Compact /
// (close, reopen, Recover) sequences through a store and a map[Key]Value
// model: contents must agree bit for bit after every step, and live + stale
// must account for every record on disk.
//
// Delete is an in-memory retirement — the stale copy stays on disk until a
// compaction drops its file — so a reopened store can resurrect deleted keys;
// the test retires them again after each Recover, as an owner replaying its
// deletions would.
func TestStoreMatchesModel(t *testing.T) {
	const (
		dim      = 3
		keySpace = 40
	)
	cfg := Config{Dim: dim, ParamsPerFile: 4, StaleFractionToCompact: 0.5}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s := openDir(t, dir, cfg)
		model := map[keys.Key]*embedding.Value{}
		deleted := map[keys.Key]bool{}
		someKeys := func() []keys.Key {
			ks := make([]keys.Key, 1+rng.Intn(12))
			for i := range ks {
				ks[i] = keys.Key(1 + rng.Intn(keySpace))
			}
			return ks
		}
		for step := 1; step <= 300; step++ {
			desc := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 4:
				vals := map[keys.Key]*embedding.Value{}
				for _, k := range someKeys() {
					vals[k] = stamped(dim, k, uint32(step))
					model[k] = vals[k]
					delete(deleted, k)
				}
				if err := s.Dump(vals); err != nil {
					t.Fatalf("%s: dump: %v", desc, err)
				}
			case op < 6:
				ks := someKeys() // with duplicates and absent keys
				got, _, err := s.LoadInto(ks, nil)
				if err != nil {
					t.Fatalf("%s: load: %v", desc, err)
				}
				for i, k := range ks {
					if want, ok := model[k]; ok != (got[i] != nil) || (ok && !sameBits(got[i], want)) {
						t.Fatalf("%s: key %d loaded as %+v, model has %+v", desc, k, got[i], want)
					}
				}
			case op < 7:
				ks := keys.Dedup(someKeys())
				live := 0
				for _, k := range ks {
					if _, ok := model[k]; ok {
						live++
						delete(model, k)
						deleted[k] = true
					}
				}
				if n := s.Delete(ks); n != live {
					t.Fatalf("%s: Delete retired %d keys, model %d", desc, n, live)
				}
			case op < 9:
				if err := s.Compact(); err != nil {
					t.Fatalf("%s: compact: %v", desc, err)
				}
			default:
				s = openDir(t, dir, cfg)
				if err := s.Recover(); err != nil {
					t.Fatalf("%s: recover: %v", desc, err)
				}
				var again []keys.Key
				for k := range deleted {
					again = append(again, k)
				}
				s.Delete(again)
			}

			all := s.Keys()
			if len(all) != len(model) || s.Len() != len(model) {
				t.Fatalf("%s: store holds %d keys, model %d", desc, len(all), len(model))
			}
			got, err := s.Load(all)
			if err != nil {
				t.Fatalf("%s: load all: %v", desc, err)
			}
			for k, want := range model {
				if !sameBits(got[k], want) {
					t.Fatalf("%s: key %d is %+v, model has %+v", desc, k, got[k], want)
				}
			}
			st := s.Stats()
			if onDisk := recordsOnDisk(t, dir, s.stride); st.LiveParams+st.StaleParams != onDisk {
				t.Fatalf("%s: live %d + stale %d != %d records on disk", desc, st.LiveParams, st.StaleParams, onDisk)
			}
		}
	}
}

// encodeRecords renders (key, value) pairs in the parameter-file format.
func encodeRecords(ks []keys.Key, vals []*embedding.Value) []byte {
	var out []byte
	for i, k := range ks {
		rec := make([]byte, 8+vals[i].EncodedSizeOf())
		binary.LittleEndian.PutUint64(rec, uint64(k))
		vals[i].Encode(rec[8:])
		out = append(out, rec...)
	}
	return out
}

func TestRecoverRejectsForeignFiles(t *testing.T) {
	good := encodeRecords([]keys.Key{1, 2}, []*embedding.Value{stamped(2, 1, 1), stamped(2, 2, 1)})
	for name, data := range map[string][]byte{
		"truncated":       good[:len(good)-3],
		"other dimension": encodeRecords([]keys.Key{1}, []*embedding.Value{stamped(5, 1, 1)}),
		// Four 56-byte dimension-5 records are as long as seven 32-byte
		// dimension-2 records.
		"other dimension, whole stride": encodeRecords([]keys.Key{1, 2, 3, 4},
			[]*embedding.Value{stamped(5, 1, 1), stamped(5, 2, 1), stamped(5, 3, 1), stamped(5, 4, 1)}),
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "pf-000000000007.dat"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := openDir(t, dir, Config{Dim: 2}).Recover()
		if err == nil || !strings.Contains(err.Error(), "pf-000000000007.dat") {
			t.Errorf("%s: Recover = %v, want an error naming the file", name, err)
		}
	}
}

// FuzzRecoverFile feeds arbitrary bytes to a store as a parameter file: both
// Recover and the loads after it must fail cleanly or return exactly the
// records the bytes spell out — never panic, never a shifted slot.
func FuzzRecoverFile(f *testing.F) {
	const dim = 2
	stride := 8 + embedding.EncodedSize(dim)
	valid := encodeRecords([]keys.Key{9, 4, 9}, []*embedding.Value{stamped(dim, 9, 1), stamped(dim, 4, 2), stamped(dim, 9, 3)})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:stride+5])
	f.Add(encodeRecords([]keys.Key{1}, []*embedding.Value{stamped(7, 1, 1)}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "pf-000000000001.dat"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		// What the bytes say, read independently: the last record of a key wins.
		wellFormed := len(data)%stride == 0
		want := map[keys.Key]*embedding.Value{}
		for off := 0; wellFormed && off < len(data); off += stride {
			v, _, err := embedding.Decode(data[off+8 : off+stride])
			if err != nil || v.Dim() != dim {
				wellFormed = false
				break
			}
			want[keys.Key(binary.LittleEndian.Uint64(data[off:]))] = v
		}

		s := openDir(t, dir, Config{Dim: dim})
		err := s.Recover()
		if !wellFormed {
			if err == nil {
				t.Fatalf("Recover accepted a malformed %d-byte file", len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("Recover rejected a well-formed file: %v", err)
		}
		got, _, err := s.LoadTimed(s.Keys())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("recovered %d keys, the file holds %d", len(got), len(want))
		}
		for k, v := range want {
			if !sameBits(got[k], v) {
				t.Fatalf("key %d recovered as %+v, the file says %+v", k, got[k], v)
			}
		}
		if st := s.Stats(); st.LiveParams+st.StaleParams != int64(len(data)/stride) {
			t.Fatalf("live %d + stale %d != %d records", st.LiveParams, st.StaleParams, len(data)/stride)
		}
	})
}
