package ssdps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

func openDevice(t testing.TB, dir string) *blockio.Device {
	t.Helper()
	dev, err := blockio.NewDevice(dir, hw.SSD{BlockBytes: 4096}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	return dev
}

func openDir(t testing.TB, dir string, cfg Config) *Store {
	t.Helper()
	s, err := Open(openDevice(t, dir), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recordsOnDisk counts the records of every live parameter file in dir's
// backing file, read through a device of its own.
func recordsOnDisk(t *testing.T, dir string) int64 {
	t.Helper()
	dev := openDevice(t, dir)
	defer dev.Close()
	var n int64
	dropped, err := dev.Scan(func(e blockio.Extent, _ []byte) error {
		n += int64(e.Records)
		return nil
	})
	if err != nil || len(dropped) != 0 {
		t.Fatalf("scan of %s: dropped %v, err %v", dir, dropped, err)
	}
	return n
}

// openFDs counts the process's open file descriptors on files under dir.
func openFDs(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	n := 0
	for _, e := range entries {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// TestStoreMatchesModel drives seeded random Dump / Load / Compact / (close,
// reopen, Recover) sequences through a store and a map[Key]Value model:
// contents must agree bit for bit after every step, and live + stale must
// account for every record on disk. However many parameter files came and
// went, the store keeps one file and one descriptor.
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
		fds := openFDs(t, dir)
		model := map[keys.Key]*embedding.Value{}
		someKeys := func() []keys.Key {
			ks := make([]keys.Key, 1+rng.Intn(12))
			for i := range ks {
				ks[i] = keys.Key(1 + rng.Intn(keySpace))
			}
			return ks
		}
		for step := 1; step <= 300; step++ {
			desc := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(9); {
			case op < 4:
				vals := map[keys.Key]*embedding.Value{}
				for _, k := range someKeys() {
					vals[k] = stamped(dim, k, uint32(step))
					model[k] = vals[k]
				}
				if err := s.Dump(vals); err != nil {
					t.Fatalf("%s: dump: %v", desc, err)
				}
			case op < 6:
				ks := someKeys() // with duplicates and absent keys
				got, err := loadValues(s, ks)
				if err != nil {
					t.Fatalf("%s: load: %v", desc, err)
				}
				for i, k := range ks {
					if want, ok := model[k]; ok != (got[i] != nil) || (ok && !sameBits(got[i], want)) {
						t.Fatalf("%s: key %d loaded as %+v, model has %+v", desc, k, got[i], want)
					}
				}
			case op < 8:
				if err := s.Compact(); err != nil {
					t.Fatalf("%s: compact: %v", desc, err)
				}
			default:
				if err := s.Device().Close(); err != nil {
					t.Fatalf("%s: close: %v", desc, err)
				}
				s = openDir(t, dir, cfg)
				if dropped, err := s.Recover(); err != nil || len(dropped) != 0 {
					t.Fatalf("%s: recover: dropped %v, err %v", desc, dropped, err)
				}
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
			if onDisk := recordsOnDisk(t, dir); st.LiveParams+st.StaleParams != onDisk {
				t.Fatalf("%s: live %d + stale %d != %d records on disk", desc, st.LiveParams, st.StaleParams, onDisk)
			}
		}
		backingFileSize(t, s.Device()) // fails unless the directory holds the backing file alone
		if now := openFDs(t, dir); now != fds || fds != 1 {
			t.Fatalf("seed %d: %d descriptors open on %s after the schedule, %d after opening the store, want 1", seed, now, dir, fds)
		}
	}
}

// encodeRecords renders (key, value) pairs in the parameter-file format.
func encodeRecords(ks []keys.Key, vals []*embedding.Value) []byte {
	var out []byte
	for i, k := range ks {
		v := vals[i]
		rec := make([]byte, 8+embedding.EncodedSize(v.Dim()))
		binary.LittleEndian.PutUint64(rec, uint64(k))
		embedding.EncodeRow(rec[8:], v.Weights, v.G2Sum, v.Freq)
		out = append(out, rec...)
	}
	return out
}

// readBacking returns the bytes of dir's backing file.
func readBacking(t testing.TB, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, blockio.BackingFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeBacking makes data the backing file of a new directory.
func writeBacking(t testing.TB, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, blockio.BackingFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRecoverRejectsForeignFiles: what is not this store's is an error that
// names what was found — never an empty store, never someone else's records.
func TestRecoverRejectsForeignFiles(t *testing.T) {
	cfg := Config{Dim: 2, ParamsPerFile: 8}

	// A directory of the layout before extents: one file per parameter file.
	oldLayout := t.TempDir()
	good := encodeRecords([]keys.Key{1, 2}, []*embedding.Value{stamped(2, 1, 1), stamped(2, 2, 1)})
	if err := os.WriteFile(filepath.Join(oldLayout, "pf-000000000007.dat"), good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openDir(t, oldLayout, cfg).Recover(); err == nil || !strings.Contains(err.Error(), "pf-000000000007.dat") {
		t.Errorf("old layout: Recover = %v, want an error naming the file", err)
	}

	// A store of another dimension: the superblock says so before any
	// record is read.
	other := t.TempDir()
	if err := openDir(t, other, Config{Dim: 5, ParamsPerFile: 8}).Dump(makeVals(5, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(openDevice(t, other), cfg); err == nil || !strings.Contains(err.Error(), "records of 56 bytes") {
		t.Errorf("other dimension: Open = %v, want an error naming the 56-byte records found", err)
	}

	// Records of another dimension inside a verified extent of the right
	// geometry: four 56-byte dimension-5 records are as long as seven
	// 32-byte dimension-2 records.
	smuggled := t.TempDir()
	dev := openDevice(t, smuggled)
	if err := dev.Format(8+embedding.EncodedSize(2), 8); err != nil {
		t.Fatal(err)
	}
	ext, err := dev.WriteFile(append(make([]byte, blockio.HeaderBytes), encodeRecords([]keys.Key{1, 2, 3, 4},
		[]*embedding.Value{stamped(5, 1, 1), stamped(5, 2, 1), stamped(5, 3, 1), stamped(5, 4, 1)})...))
	if err != nil {
		t.Fatal(err)
	}
	dev.Close()
	_, err = openDir(t, smuggled, cfg).Recover()
	if err == nil || !strings.Contains(err.Error(), ext.String()) || !strings.Contains(err.Error(), "dimension 5") {
		t.Errorf("smuggled dimension: Recover = %v, want an error naming %v and dimension 5", err, ext)
	}

	// Not a backing file at all.
	foreign := writeBacking(t, bytes.Repeat([]byte("not an extent file\n"), 100))
	if _, err := blockio.NewDevice(foreign, hw.SSD{}, nil); err == nil || !strings.Contains(err.Error(), "bad superblock") {
		t.Errorf("foreign backing file: NewDevice = %v, want a bad-superblock error", err)
	}
}

// contents is everything a store holds, loaded.
func contents(t testing.TB, s *Store) map[keys.Key]*embedding.Value {
	t.Helper()
	got, err := s.Load(s.Keys())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func sameContents(a, b map[keys.Key]*embedding.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !sameBits(b[k], v) {
			return false
		}
	}
	return true
}

// TestRecoverDropsTornExtent kills the process, in effect, part-way through
// the write of a parameter file: the backing file is what it was before the
// dump up to every 512-byte boundary of the new extent (and a few offsets
// inside its header), and what it was after from there on. Recover must then
// equal the model either before that parameter file (reporting the one torn
// extent it left out) or after it — never a mixture, never an error. Once
// with the file growing, where the tear is a truncation, and once into an
// erased slot, where the tail is the previous tenant's records.
func TestRecoverDropsTornExtent(t *testing.T) {
	const dim, perFile = 8, 32
	cfg := Config{Dim: dim, ParamsPerFile: perFile}
	for _, reuse := range []bool{false, true} {
		dir := t.TempDir()
		s := openDir(t, dir, cfg)
		vals := map[keys.Key]*embedding.Value{}
		for k := keys.Key(1); k <= 3*perFile; k++ {
			vals[k] = stamped(dim, k, 1)
		}
		if err := s.Dump(vals); err != nil {
			t.Fatal(err)
		}
		if reuse {
			// Supersede the middle file and compact it away.
			mid := map[keys.Key]*embedding.Value{}
			for k := keys.Key(perFile + 1); k <= 2*perFile; k++ {
				mid[k] = stamped(dim, k, 2)
			}
			if err := s.Dump(mid); err != nil {
				t.Fatal(err)
			}
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		before, beforeBytes := contents(t, s), readBacking(t, dir)

		last := map[keys.Key]*embedding.Value{}
		for k := keys.Key(perFile / 2); k < perFile/2+perFile; k++ {
			last[k] = stamped(dim, k, 3)
		}
		if err := s.Dump(last); err != nil {
			t.Fatal(err)
		}
		after, afterBytes := contents(t, s), readBacking(t, dir)
		var ext blockio.Extent
		for _, meta := range s.files {
			if meta.live && meta.ext.ID > ext.ID {
				ext = meta.ext
			}
		}
		whole := blockio.HeaderBytes + ext.Records*s.stride
		if grew := len(afterBytes) > len(beforeBytes); grew == reuse {
			t.Fatalf("reuse %v: the last dump took the backing file from %d to %d bytes", reuse, len(beforeBytes), len(afterBytes))
		}
		s.Device().Close()

		landed := afterBytes[ext.Offset : int(ext.Offset)+whole]
		cuts := []int{0, 4, 8, 16, 20, 23, 24, 25, whole - 1, whole}
		for c := 512; c < whole+512; c += 512 {
			cuts = append(cuts, c)
		}
		for _, cut := range cuts {
			at := int(ext.Offset) + cut
			torn := bytes.Clone(afterBytes[:min(at, len(afterBytes))])
			if at < len(beforeBytes) {
				torn = append(torn, beforeBytes[at:]...)
			}
			r := openDir(t, writeBacking(t, torn), cfg)
			dropped, err := r.Recover()
			if err != nil {
				t.Fatalf("reuse %v, cut %d: Recover: %v", reuse, cut, err)
			}
			got := contents(t, r)
			r.Device().Close()
			switch {
			// The bytes past the cut may happen to equal those the write
			// would have put there.
			case len(torn) >= int(ext.Offset)+whole && bytes.Equal(torn[ext.Offset:int(ext.Offset)+whole], landed):
				if !sameContents(got, after) || len(dropped) != 0 {
					t.Fatalf("reuse %v, cut %d: the whole file landed, yet Recover differs from the model after it (dropped %v)", reuse, cut, dropped)
				}
			case !sameContents(got, before):
				t.Fatalf("reuse %v, cut %d: Recover holds %d keys that are not the model before the torn file (dropped %v)", reuse, cut, len(got), dropped)
			case cut == 0 && len(dropped) != 0, cut > 0 && (len(dropped) != 1 || dropped[0].Offset != ext.Offset):
				t.Fatalf("reuse %v, cut %d: dropped %v, want the torn extent at offset %d alone", reuse, cut, dropped, ext.Offset)
			case r.Stats().DroppedExtents != int64(len(dropped)):
				t.Fatalf("reuse %v, cut %d: Stats count %d dropped extents, Recover returned %d", reuse, cut, r.Stats().DroppedExtents, len(dropped))
			}
		}
	}
}

// FuzzRecoverFile feeds arbitrary bytes to a store as the extents of its
// backing file: Recover must never panic, and must yield exactly the records
// of the extents that verify — read independently here — with the copy in
// the highest-numbered extent winning; everything else it drops whole. The
// only bytes it may refuse are verified extents with records of another
// dimension.
func FuzzRecoverFile(f *testing.F) {
	const dim, perFile, slot = 2, 4, 512
	cfg := Config{Dim: dim, ParamsPerFile: perFile}
	stride := 8 + embedding.EncodedSize(dim)
	// The superblock of every input, and a valid image to mutate.
	dir := f.TempDir()
	s := openDir(f, dir, cfg)
	for v, ks := range [][]keys.Key{{9, 4, 7, 1, 5}, {4, 9}, {9}} {
		vals := map[keys.Key]*embedding.Value{}
		for _, k := range ks {
			vals[k] = stamped(dim, k, uint32(v+1))
		}
		if err := s.Dump(vals); err != nil {
			f.Fatal(err)
		}
	}
	s.Device().Close()
	image := readBacking(f, dir)
	super, valid := image[:512], image[512:]
	// A verified extent whose records have another dimension.
	dev := openDevice(f, f.TempDir())
	if err := dev.Format(stride, perFile); err != nil {
		f.Fatal(err)
	}
	if _, err := dev.WriteFile(append(make([]byte, blockio.HeaderBytes), encodeRecords([]keys.Key{1}, []*embedding.Value{stamped(dim+4, 1, 1)})...)); err != nil {
		f.Fatal(err)
	}
	dev.Close()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:slot+blockio.HeaderBytes+stride+5])
	f.Add(readBacking(f, dev.Dir())[512:])
	f.Add([]byte{})
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, data []byte) {
		// What the bytes say: slot by slot, an extent counts when its magic,
		// count and checksum hold; a zeroed header is an erased slot.
		type owner struct {
			id uint64
			v  *embedding.Value
		}
		want := map[keys.Key]owner{}
		var records, torn int
		otherDim := false
		for off := 0; off < len(data); off += slot {
			sl := data[off:min(off+slot, len(data))]
			if bytes.Equal(sl[:min(len(sl), blockio.HeaderBytes)], make([]byte, min(len(sl), blockio.HeaderBytes))) {
				continue
			}
			torn++
			if len(sl) < blockio.HeaderBytes || string(sl[:4]) != "XTNT" {
				continue
			}
			count, id := int(binary.LittleEndian.Uint32(sl[4:])), binary.LittleEndian.Uint64(sl[8:])
			end := blockio.HeaderBytes + count*stride
			if count < 1 || count > perFile || end > len(sl) ||
				crc32.Update(crc32.Checksum(sl[:16], castagnoli), castagnoli, sl[blockio.HeaderBytes:end]) != binary.LittleEndian.Uint32(sl[16:]) {
				continue
			}
			torn--
			records += count
			for at := blockio.HeaderBytes; at < end; at += stride {
				v := embedding.NewValue(dim)
				freq, _, err := embedding.DecodeRow(sl[at+8:at+stride], v.Weights, v.G2Sum)
				if err != nil {
					otherDim = true
					break
				}
				v.Freq = freq
				if k := keys.Key(binary.LittleEndian.Uint64(sl[at:])); id >= want[k].id {
					want[k] = owner{id, v}
				}
			}
		}

		r := openDir(t, writeBacking(t, append(bytes.Clone(super), data...)), cfg)
		dropped, err := r.Recover()
		if otherDim {
			if err == nil {
				t.Fatal("Recover accepted a verified extent with records of another dimension")
			}
			return
		}
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if len(dropped) != torn {
			t.Fatalf("Recover dropped %v, the bytes hold %d slots that do not verify", dropped, torn)
		}
		got := contents(t, r)
		if len(got) != len(want) {
			t.Fatalf("recovered %d keys, the verified extents hold %d", len(got), len(want))
		}
		for k, o := range want {
			if !sameBits(got[k], o.v) {
				t.Fatalf("key %d recovered as %+v, extent %d says %+v", k, got[k], o.id, o.v)
			}
		}
		if st := r.Stats(); st.LiveParams+st.StaleParams != int64(records) {
			t.Fatalf("live %d + stale %d != %d verified records", st.LiveParams, st.StaleParams, records)
		}
	})
}
