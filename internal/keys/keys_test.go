package keys

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMix64Bijective(t *testing.T) {
	// Distinct small inputs must produce distinct outputs (spot check of the
	// bijection over a large sample).
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestShardRange(t *testing.T) {
	f := func(k uint64, n uint8) bool {
		nn := int(n%16) + 1
		s := Key(k).Shard(nn)
		return s >= 0 && s < nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShardSmallN(t *testing.T) {
	if Key(42).Shard(0) != 0 || Key(42).Shard(1) != 0 || Key(42).Shard(-3) != 0 {
		t.Fatal("Shard with n<=1 must return 0")
	}
	if Key(42).HashShard(0) != 0 {
		t.Fatal("HashShard with n<=1 must return 0")
	}
}

func TestShardBalance(t *testing.T) {
	// Random keys under modulo sharding should balance across 8 shards
	// (paper: "A simple modulo hash function yields a balanced partitioning
	// in general cases").
	const n = 8
	const total = 80000
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, n)
	for i := 0; i < total; i++ {
		counts[Key(rng.Uint64()).Shard(n)]++
	}
	want := total / n
	for s, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("shard %d has %d keys, want within 10%% of %d", s, c, want)
		}
	}
}

func TestHashShardBalanceOnSequentialKeys(t *testing.T) {
	const n = 7
	const total = 70000
	counts := make([]int, n)
	for i := 0; i < total; i++ {
		counts[Key(i).HashShard(n)]++
	}
	want := total / n
	for s, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("hash shard %d has %d keys, want ~%d", s, c, want)
		}
	}
}

func TestPartitionByShard(t *testing.T) {
	ks := []Key{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	parts := PartitionByShard(ks, 3)
	if len(parts) != 3 {
		t.Fatalf("want 3 partitions, got %d", len(parts))
	}
	total := 0
	for shard, part := range parts {
		total += len(part)
		for _, k := range part {
			if k.Shard(3) != shard {
				t.Fatalf("key %d placed in wrong shard %d", k, shard)
			}
		}
	}
	if total != len(ks) {
		t.Fatalf("partition lost keys: %d != %d", total, len(ks))
	}
	// n < 1 clamps to a single partition.
	one := PartitionByShard(ks, 0)
	if len(one) != 1 || len(one[0]) != len(ks) {
		t.Fatal("n<1 must produce one partition with all keys")
	}
}

func TestPartitionPreservesAllKeysProperty(t *testing.T) {
	f := func(raw []uint64, n uint8) bool {
		nn := int(n%8) + 1
		ks := make([]Key, len(raw))
		for i, r := range raw {
			ks[i] = Key(r)
		}
		parts := PartitionByShard(ks, nn)
		count := 0
		for _, p := range parts {
			count += len(p)
		}
		return count == len(ks)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDedup(t *testing.T) {
	ks := []Key{5, 1, 5, 3, 1, 1, 9}
	got := Dedup(ks)
	want := []Key{1, 3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("Dedup = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Dedup = %v, want %v", got, want)
		}
	}
	if got := Dedup(nil); len(got) != 0 {
		t.Fatal("Dedup(nil) must be empty")
	}
	single := Dedup([]Key{7})
	if len(single) != 1 || single[0] != 7 {
		t.Fatal("Dedup single element broken")
	}
}

func TestDedupProperty(t *testing.T) {
	f := func(raw []uint64) bool {
		ks := make([]Key, len(raw))
		set := make(map[Key]bool)
		for i, r := range raw {
			ks[i] = Key(r)
			set[Key(r)] = true
		}
		got := Dedup(ks)
		if len(got) != len(set) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		for _, k := range got {
			if !set[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
