package ssdps

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"hps/internal/blockio"
	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/ps"
)

func benchStore(b *testing.B, paramsPerFile int) *Store {
	b.Helper()
	ssd := hw.SSD{
		ReadBandwidthBytesPerSec:  6 << 30,
		WriteBandwidthBytesPerSec: 4 << 30,
		ReadLatency:               90 * time.Microsecond,
		WriteLatency:              25 * time.Microsecond,
		BlockBytes:                4096,
	}
	dev, err := blockio.NewDevice(b.TempDir(), ssd, hw.NewCounter())
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(dev, Config{Dim: 8, ParamsPerFile: paramsPerFile})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchVals(n int, seed int64) map[keys.Key]*embedding.Value {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[keys.Key]*embedding.Value, n)
	for i := 0; i < n; i++ {
		out[keys.Key(keys.Mix64(uint64(i)))] = embedding.NewRandomValue(8, rng)
	}
	return out
}

// BenchmarkFileRead measures the SSD-PS read path: loading a random subset
// of parameters, which reads whole parameter files (the read-amplification
// trade of Appendix E).
func BenchmarkFileRead(b *testing.B) {
	s := benchStore(b, 256)
	if err := s.Dump(benchVals(8192, 1)); err != nil {
		b.Fatal(err)
	}
	all := s.Keys()
	rng := rand.New(rand.NewSource(2))
	want := make([]keys.Key, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range want {
			want[j] = all[rng.Intn(len(all))]
		}
		out, err := s.Load(want)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("load returned nothing")
		}
	}
}

// BenchmarkDumpCompactCycle measures the SSD-PS write path under churn: each
// iteration rewrites the same parameter set (making the previous copies
// stale) and runs a compaction pass once the stale fraction builds up.
func BenchmarkDumpCompactCycle(b *testing.B) {
	s := benchStore(b, 256)
	vals := benchVals(2048, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Dump(vals); err != nil {
			b.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadSparse measures the load the cold training path issues: 28 of
// the 256 parameters of every file it touches (the read amplification
// measured on train_local_cold is 9.3x), through the positional form the
// MEM-PS uses. The whole files are read; only the requested records may cost
// decoding and allocation — two allocations per loaded key.
func BenchmarkLoadSparse(b *testing.B) {
	const perFile, wantPerFile = 256, 28
	s := benchStore(b, perFile)
	if err := s.Dump(benchVals(64*perFile, 4)); err != nil {
		b.Fatal(err)
	}
	// A dump chunks its sorted keys into files.
	all := s.Keys()
	slices.Sort(all)
	rng := rand.New(rand.NewSource(5))
	var want []keys.Key
	for f := 0; f < len(all); f += perFile {
		for _, i := range rng.Perm(perFile)[:wantPerFile] {
			want = append(want, all[f+i])
		}
	}
	slices.Sort(want)
	dst := ps.NewValueBlock(s.Dim())
	dst.Reset(s.Dim(), want)
	if _, err := s.LoadInto(want, dst, nil); err != nil { // warm the scratch buffers
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.LoadInto(want, dst, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	loaded := float64(b.N) * float64(len(want))
	allocsPerKey := float64(after.Mallocs-before.Mallocs) / loaded
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/loaded, "ns/key")
	b.ReportMetric(allocsPerKey, "allocs/key")
	if allocsPerKey > 3 {
		b.Fatalf("%.2f allocations per loaded key, want at most 3", allocsPerKey)
	}
}
