package ssdps

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hps/internal/blockio"
	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/ps"
)

func testDevice(t *testing.T) *blockio.Device {
	t.Helper()
	ssd := hw.SSD{
		ReadBandwidthBytesPerSec:  1 << 30,
		WriteBandwidthBytesPerSec: 1 << 30,
		ReadLatency:               time.Microsecond,
		WriteLatency:              time.Microsecond,
		BlockBytes:                4096,
	}
	dev, err := blockio.NewDevice(t.TempDir(), ssd, hw.NewCounter())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	return dev
}

// backingFileSize returns the size of the device's backing file, which must
// be the only thing in the device's directory.
func backingFileSize(t *testing.T, dev *blockio.Device) int64 {
	t.Helper()
	entries, err := os.ReadDir(dev.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != blockio.BackingFile {
		t.Fatalf("device directory holds %v, want only %s", entries, blockio.BackingFile)
	}
	info, err := entries[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func testStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(testDevice(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func makeVals(dim int, ks ...uint64) map[keys.Key]*embedding.Value {
	out := make(map[keys.Key]*embedding.Value, len(ks))
	for _, k := range ks {
		v := embedding.NewValue(dim)
		v.Weights[0] = float32(k)
		out[keys.Key(k)] = v
	}
	return out
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil, Config{}); err == nil {
		t.Fatal("nil device should fail")
	}
	s := testStore(t, Config{})
	if s.Dim() != 8 {
		t.Fatalf("default dim = %d", s.Dim())
	}
}

func TestDumpLoadRoundTrip(t *testing.T) {
	s := testStore(t, Config{Dim: 4, ParamsPerFile: 3})
	vals := makeVals(4, 1, 2, 3, 4, 5, 6, 7)
	if err := s.Dump(vals); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 7 {
		t.Fatalf("len = %d", s.Len())
	}
	got, err := s.Load([]keys.Key{1, 5, 7, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("loaded %d values, want 3 (key 100 missing)", len(got))
	}
	for _, k := range []uint64{1, 5, 7} {
		if got[keys.Key(k)].Weights[0] != float32(k) {
			t.Fatalf("value for %d corrupted", k)
		}
	}
	if !s.Contains(1) || s.Contains(100) {
		t.Fatal("Contains wrong")
	}
	// 7 params with 3 per file = 3 files.
	if st := s.Stats(); st.Files != 3 || st.LiveParams != 7 || st.StaleParams != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDumpEmptyNoop(t *testing.T) {
	s := testStore(t, Config{Dim: 2})
	if err := s.Dump(nil); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Files != 0 {
		t.Fatal("empty dump should create no files")
	}
}

func TestUpdatesCreateStaleCopies(t *testing.T) {
	s := testStore(t, Config{Dim: 2, ParamsPerFile: 10})
	if err := s.Dump(makeVals(2, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	// Update keys 1 and 2 with new values.
	updated := makeVals(2, 1, 2)
	updated[1].Weights[0] = 100
	if err := s.Dump(updated); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Files != 2 {
		t.Fatalf("files = %d", st.Files)
	}
	if st.StaleParams != 2 {
		t.Fatalf("stale = %d, want 2", st.StaleParams)
	}
	if st.LiveParams != 3 {
		t.Fatalf("live = %d", st.LiveParams)
	}
	// Load must return the newest version.
	got, err := s.Load([]keys.Key{1})
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Weights[0] != 100 {
		t.Fatalf("load returned stale value %v", got[1].Weights[0])
	}
}

func TestCompactRemovesStaleFiles(t *testing.T) {
	s := testStore(t, Config{Dim: 2, ParamsPerFile: 4, StaleFractionToCompact: 0.5})
	if err := s.Dump(makeVals(2, 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	// Supersede 3 of the 4 (75% stale) so the first file qualifies.
	newer := makeVals(2, 1, 2, 3)
	newer[1].Weights[0] = 11
	newer[2].Weights[0] = 22
	newer[3].Weights[0] = 33
	if err := s.Dump(newer); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if before.StaleParams != 3 {
		t.Fatalf("stale before = %d", before.StaleParams)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.StaleParams != 0 {
		t.Fatalf("stale after compact = %d", after.StaleParams)
	}
	if after.Compactions != 1 || after.CompactedFiles == 0 {
		t.Fatalf("compaction stats = %+v", after)
	}
	if after.LiveParams != 4 {
		t.Fatalf("live after compact = %d", after.LiveParams)
	}
	// The victim's one live record (key 4) was rewritten: the tier counts it
	// as a pushed key beside the 7 dumped, Rewritten tells them apart.
	if before.Rewritten != 0 || after.Rewritten != 1 {
		t.Fatalf("rewritten = %d before, %d after compaction; want 0, 1", before.Rewritten, after.Rewritten)
	}
	if pushed := s.TierStats().KeysPushed; pushed != 7+after.Rewritten {
		t.Fatalf("tier pushed %d keys, want 7 dumped + %d rewritten", pushed, after.Rewritten)
	}
	// All values still correct after compaction.
	got, err := s.Load([]keys.Key{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Weights[0] != 11 || got[4].Weights[0] != 4 {
		t.Fatal("values corrupted by compaction")
	}
	// Files with few stale values are left alone.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactIfNeededThreshold(t *testing.T) {
	s := testStore(t, Config{Dim: 2, ParamsPerFile: 4, DiskUsageThresholdBytes: 1 << 40})
	s.Dump(makeVals(2, 1, 2, 3, 4))
	ran, err := s.CompactIfNeeded()
	if err != nil || ran {
		t.Fatalf("compaction should not run below threshold: ran=%v err=%v", ran, err)
	}
	// Tiny threshold forces compaction.
	s2 := testStore(t, Config{Dim: 2, ParamsPerFile: 2, DiskUsageThresholdBytes: 1})
	s2.Dump(makeVals(2, 1, 2, 3, 4))
	s2.Dump(makeVals(2, 1, 2, 3, 4)) // make the first files 100% stale
	ran, err = s2.CompactIfNeeded()
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("compaction should run above threshold")
	}
	if !s2.NeedsCompaction() && s2.Stats().UsageBytes > 1 {
		// NeedsCompaction may still be true because the threshold is absurdly
		// small; the important part is that live data survived.
		t.Log("usage still above threshold, as expected for a 1-byte threshold")
	}
	got, _ := s2.Load([]keys.Key{1, 2, 3, 4})
	if len(got) != 4 {
		t.Fatalf("live params lost by compaction: %d", len(got))
	}
}

func TestDiskUsageBoundedUnderChurn(t *testing.T) {
	// Repeatedly rewrite the same key set; with compaction triggered by a
	// modest threshold the number of live files must stay bounded instead of
	// growing linearly with the number of dumps, and the backing file with
	// them: erased extents are reused before the file grows. The second shape
	// has parameter files of exactly one block, so the file size and the
	// block-rounded usage are comparable.
	for _, shape := range []struct{ perFile, nKeys int }{{8, 16}, {128, 256}} {
		dev := testDevice(t)
		s, err := Open(dev, Config{Dim: 2, ParamsPerFile: shape.perFile, DiskUsageThresholdBytes: 16 * 4096, StaleFractionToCompact: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		ks := make([]uint64, shape.nKeys)
		for i := range ks {
			ks[i] = uint64(i + 1)
		}
		const rounds = 1000
		var usageHighWater int64
		for round := 0; round < rounds; round++ {
			vals := makeVals(2, ks...)
			for _, v := range vals {
				v.Weights[1] = float32(round)
			}
			if err := s.Dump(vals); err != nil {
				t.Fatal(err)
			}
			usageHighWater = max(usageHighWater, s.Stats().UsageBytes)
			if _, err := s.CompactIfNeeded(); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		if st.LiveParams != int64(shape.nKeys) {
			t.Fatalf("live = %d", st.LiveParams)
		}
		if st.Files > 20 {
			t.Fatalf("file count %d not bounded by compaction", st.Files)
		}
		if st.Compactions == 0 {
			t.Fatal("expected at least one compaction")
		}
		if size := backingFileSize(t, dev); size > usageHighWater*5/4 {
			t.Fatalf("backing file is %d bytes after %d dumps, accounted usage never exceeded %d", size, rounds, usageHighWater)
		}
		// Latest values visible.
		got, _ := s.Load([]keys.Key{7})
		if got[7].Weights[1] != rounds-1 {
			t.Fatalf("latest value lost: %v", got[7].Weights[1])
		}
	}
}

func TestRecoverRebuildsMapping(t *testing.T) {
	dir := t.TempDir()
	s1 := openDir(t, dir, Config{Dim: 2, ParamsPerFile: 2})
	s1.Dump(makeVals(2, 1, 2, 3))
	updated := makeVals(2, 2)
	updated[2].Weights[0] = 99
	s1.Dump(updated)

	// Reopen the directory with a fresh store and recover.
	s2 := openDir(t, dir, Config{Dim: 2, ParamsPerFile: 2})
	if dropped, err := s2.Recover(); err != nil || len(dropped) != 0 {
		t.Fatalf("Recover = %v, %v", dropped, err)
	}
	if s2.Len() != 3 {
		t.Fatalf("recovered %d params, want 3", s2.Len())
	}
	got, err := s2.Load([]keys.Key{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got[2].Weights[0] != 99 {
		t.Fatal("recovery must keep the newest version")
	}
	st := s2.Stats()
	if st.StaleParams != 1 {
		t.Fatalf("recovered stale = %d", st.StaleParams)
	}
}

func TestLoadDumpPropertyLatestWins(t *testing.T) {
	s := testStore(t, Config{Dim: 1, ParamsPerFile: 5})
	truth := make(map[keys.Key]float32)
	f := func(ops []uint16, seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		batch := make(map[keys.Key]*embedding.Value)
		for _, op := range ops {
			k := keys.Key(op % 64)
			v := embedding.NewValue(1)
			v.Weights[0] = rng.Float32()
			batch[k] = v
			truth[k] = v.Weights[0]
		}
		if err := s.Dump(batch); err != nil {
			return false
		}
		// Load everything we believe exists and verify latest-wins.
		var ks []keys.Key
		for k := range truth {
			ks = append(ks, k)
		}
		got, err := s.Load(ks)
		if err != nil || len(got) != len(truth) {
			return false
		}
		for k, want := range truth {
			if got[k].Weights[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestKeysAndDevice(t *testing.T) {
	s := testStore(t, Config{Dim: 2, ParamsPerFile: 4})
	s.Dump(makeVals(2, 5, 6))
	if len(s.Keys()) != 2 {
		t.Fatal("Keys wrong")
	}
	if s.Device() == nil {
		t.Fatal("Device accessor nil")
	}
	if s.Device().Stats().Writes == 0 {
		t.Fatal("dump should have written files")
	}
}

func TestConcurrentDumpLoad(t *testing.T) {
	s := testStore(t, Config{Dim: 2, ParamsPerFile: 8})
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(base uint64) {
			vals := makeVals(2, base, base+1, base+2, base+3)
			done <- s.Dump(vals)
		}(uint64(w * 10))
		go func(base uint64) {
			_, err := s.Load([]keys.Key{keys.Key(base)})
			done <- err
		}(uint64(w * 10))
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 16 {
		t.Fatalf("len = %d", s.Len())
	}
}

// TestConcurrentLoadDumpCompact runs the three store operations a pipelined
// MEM-PS overlaps — a batch loading its misses, another dumping its evictions,
// a third compacting — against each other. A load must never find the file it
// picked erased or, worse, rewritten — the extents a compaction pass erases
// go straight to the dumps of the next rounds, and the store is small enough
// that all of them are reused many times within the test — and a value must
// never go backwards: compaction rewriting
// a copy it collected before a newer dump landed — the main loop re-dumps
// half the keys every round while compaction passes run back to back — must
// not supersede that dump. Every loaded value must be, bit for bit, some
// version of its own key: compaction moves raw records between slots.
func TestConcurrentLoadDumpCompact(t *testing.T) {
	// The main loop dumps until enough compaction passes ran beside it.
	const (
		nKeys          = 48
		minRounds      = 1500
		maxRounds      = 200000
		minCompactions = 50
	)
	dev := testDevice(t)
	s, err := Open(dev, Config{Dim: 2, ParamsPerFile: 4, StaleFractionToCompact: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	ks := make([]keys.Key, nKeys)
	for i := range ks {
		ks[i] = keys.Key(i + 1)
	}
	// Round v rewrites every other key, so the files of earlier rounds stay
	// half live: compaction always has values to carry over, and the next
	// round's dump races exactly those.
	last := make(map[keys.Key]uint32, nKeys)
	version := func(v uint32) map[keys.Key]*embedding.Value {
		vals := make(map[keys.Key]*embedding.Value, nKeys)
		for _, k := range ks {
			if v > 0 && (uint32(k)+v)%2 == 0 {
				continue
			}
			vals[k] = stamped(2, k, v)
			last[k] = v
		}
		return vals
	}
	if err := s.Dump(version(0)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	background := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := f(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	background(s.Compact)
	for r := 0; r < 3; r++ {
		seen := make(map[keys.Key]uint32, nKeys)
		background(func() error {
			got, _, err := s.LoadTimed(ks)
			if err != nil {
				return err
			}
			for _, k := range ks {
				v, ok := got[k]
				if !ok {
					return fmt.Errorf("key %d vanished", k)
				}
				if v.Freq < seen[k] {
					return fmt.Errorf("key %d went back from version %d to %d", k, seen[k], v.Freq)
				}
				if !sameBits(v, stamped(2, k, v.Freq)) {
					return fmt.Errorf("key %d loaded as %+v, not a version of itself", k, v)
				}
				seen[k] = v.Freq
			}
			return nil
		})
	}
	for v := uint32(1); v <= maxRounds && !t.Failed() && (v <= minRounds || s.Stats().Compactions < minCompactions); v++ {
		if err := s.Dump(version(v)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	got, err := s.Load(ks)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		if !sameBits(got[k], stamped(2, k, last[k])) {
			t.Fatalf("key %d ended at %+v, want version %d", k, got[k], last[k])
		}
	}
	if n := s.Stats().Compactions; n < minCompactions {
		t.Fatalf("%d compaction passes ran beside %d dumps: the test exercised too little", n, maxRounds)
	}
	// Every parameter file is 4 records of 32 bytes in a 512-byte slot. Had
	// each gone to a slot of its own the file would be io.Writes slots long.
	io := dev.Stats()
	if slots := backingFileSize(t, dev) / 512; slots > io.Writes/2 {
		t.Fatalf("%d parameter files written and %d erased, yet the backing file spans %d slots: erased extents were not reused",
			io.Writes, io.Deletes, slots)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestLoadIntoGroupsByFile checks the one-pass grouping of a load: a request
// in any order — shuffled, with duplicates and keys the store lacks — gets
// the values the sorted request gets, each file it touches is read exactly
// once, and past the decoded values a load allocates nothing.
func TestLoadIntoGroupsByFile(t *testing.T) {
	const dim, perFile, files = 4, 16, 12
	s := testStore(t, Config{Dim: dim, ParamsPerFile: perFile})
	all := make(map[keys.Key]*embedding.Value)
	for k := keys.Key(1); k <= perFile*files; k++ {
		all[k] = stamped(dim, k, 1)
	}
	if err := s.Dump(all); err != nil {
		t.Fatal(err)
	}
	// Rewrite every third key, so most files hold stale records and the
	// latest copies of neighbouring keys live in different files.
	again := make(map[keys.Key]*embedding.Value)
	for k := keys.Key(3); k <= perFile*files; k += 3 {
		again[k] = stamped(dim, k, 2)
		all[k] = again[k]
	}
	if err := s.Dump(again); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	var sorted []keys.Key
	for k := keys.Key(1); k <= perFile*files+8; k++ { // the last 8 are absent
		if rng.Intn(3) == 0 {
			sorted = append(sorted, k, k) // duplicates are answered twice
		} else if rng.Intn(2) == 0 {
			sorted = append(sorted, k)
		}
	}
	shuffled := slices.Clone(sorted)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	s.mu.Lock()
	touched := make(map[int32]bool)
	found := 0
	for _, k := range shuffled {
		if l, ok := s.mapping.Get(k); ok {
			touched[l.file] = true
			found++
		}
	}
	s.mu.Unlock()

	want, err := loadValues(s, sorted)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[keys.Key]*embedding.Value)
	for i, k := range sorted {
		byKey[k] = want[i]
	}
	reads := s.Device().Stats().Reads
	got, err := loadValues(s, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Device().Stats().Reads - reads; n != int64(len(touched)) {
		t.Fatalf("the shuffled load read %d files, it touches %d", n, len(touched))
	}
	for i, k := range shuffled {
		switch v := got[i]; {
		case all[k] == nil && v != nil:
			t.Fatalf("key %d is absent, the load returned %v", k, v)
		case all[k] != nil && (!sameBits(v, all[k]) || !sameBits(v, byKey[k])):
			t.Fatalf("key %d: shuffled load %v, sorted load %v, stored %v", k, v, byKey[k], all[k])
		}
	}

	// Into reused rows, scattered over a block, a load allocates nothing.
	blk := ps.NewValueBlock(dim)
	blk.Reset(dim, make([]keys.Key, 2*len(shuffled)))
	rows := make([]int32, len(shuffled))
	for i := range rows {
		rows[i] = int32(2*len(shuffled) - 1 - 2*i)
	}
	if _, err := s.LoadInto(shuffled, blk, rows); err != nil {
		t.Fatal(err)
	}
	for i, k := range shuffled {
		if v := blk.Value(int(rows[i])); (v != nil) != (all[k] != nil) || (v != nil && !sameBits(v, all[k])) {
			t.Fatalf("key %d loaded into row %d as %v, stored %v", k, rows[i], v, all[k])
		}
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.LoadInto(shuffled, blk, rows); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a load of %d values into a block allocates %.1f times", found, allocs)
	}
}

// loadValues loads ks through LoadInto and returns each key's value, nil
// when the store does not hold it.
func loadValues(s *Store, ks []keys.Key) ([]*embedding.Value, error) {
	blk := ps.NewValueBlock(s.Dim())
	blk.Reset(s.Dim(), ks)
	if _, err := s.LoadInto(ks, blk, nil); err != nil {
		return nil, err
	}
	out := make([]*embedding.Value, len(ks))
	for i := range ks {
		out[i] = blk.Value(i)
	}
	return out, nil
}

func TestEvictRetiresKeys(t *testing.T) {
	s := testStore(t, Config{Dim: 4, ParamsPerFile: 8, StaleFractionToCompact: 0.5})
	if err := s.Dump(makeVals(4, 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if n := s.Delete([]keys.Key{1, 2, 99}); n != 2 {
		t.Fatalf("Delete retired %d keys, want 2", n)
	}
	if s.Contains(1) || s.Contains(2) || !s.Contains(3) {
		t.Fatal("retired keys must disappear, live keys must survive")
	}
	if s.Len() != 2 {
		t.Fatalf("live params = %d, want 2", s.Len())
	}
	// Compaction reclaims the retired copies without dropping live
	// parameters.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(3) || !s.Contains(4) {
		t.Fatal("compaction must preserve live parameters")
	}
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatal("retiring half a file should make it a compaction victim")
	}
}
