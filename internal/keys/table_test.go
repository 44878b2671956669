package keys

import (
	"math"
	"math/rand"
	"testing"
)

// checkTable fails unless tab holds exactly model, and every probe run is
// unbroken: each key is reachable from its home slot without crossing an
// empty one.
func checkTable(t *testing.T, tab *Table[int], model map[Key]int) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("Len = %d, the model has %d keys", tab.Len(), len(model))
	}
	for k, want := range model {
		if got, ok := tab.Get(k); !ok || got != want {
			t.Fatalf("Get(%d) = %d, %v; the model has %d", k, got, ok, want)
		}
	}
	seen := 0
	tab.Range(func(k Key, v int) bool {
		if want, ok := model[k]; !ok || v != want {
			t.Fatalf("Range yields %d: %d, the model has %d (%v)", k, v, want, ok)
		}
		seen++
		return true
	})
	if seen != len(model) {
		t.Fatalf("Range yields %d keys, the model has %d", seen, len(model))
	}
	mask := len(tab.slots) - 1
	for i, s := range tab.slots {
		if s.key == marker {
			continue
		}
		for j := tab.home(s.key); j != i; j = (j + 1) & mask {
			if tab.slots[j].key == marker {
				t.Fatalf("key %d at slot %d is cut off from its home %d by the empty slot %d", s.key, i, tab.home(s.key), j)
			}
		}
	}
}

// TestTableMatchesModel runs seeded sequences of puts, upserts, gets and
// deletes against a Go map, over key spaces small enough to collide and
// with the extreme keys 0 and MaxUint64 in every one.
func TestTableMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		space := 8 << rng.Intn(8) // 8 .. 1,024 distinct keys
		pick := func() Key {
			switch r := rng.Intn(space + 2); r {
			case space:
				return 0
			case space + 1:
				return math.MaxUint64
			default:
				return Key(Mix64(uint64(r)))
			}
		}
		var tab Table[int]
		model := map[Key]int{}
		for op := 0; op < 20000; op++ {
			k := pick()
			switch rng.Intn(5) {
			case 0:
				tab.Put(k, op)
				model[k] = op
			case 1:
				p, had := tab.Upsert(k)
				if _, want := model[k]; had != want {
					t.Fatalf("seed %d op %d: Upsert(%d) reports %v, the model %v", seed, op, k, had, want)
				}
				*p += op
				model[k] += op
			case 2, 3:
				v, had := tab.Delete(k)
				want, wantHad := model[k]
				if had != wantHad || v != want {
					t.Fatalf("seed %d op %d: Delete(%d) = %d, %v; the model has %d, %v", seed, op, k, v, had, want, wantHad)
				}
				delete(model, k)
			default:
				v, ok := tab.Get(k)
				want, wantOK := model[k]
				if ok != wantOK || v != want || tab.Has(k) != wantOK || (tab.Ptr(k) != nil) != wantOK {
					t.Fatalf("seed %d op %d: Get(%d) = %d, %v; the model has %d, %v", seed, op, k, v, ok, want, wantOK)
				}
			}
			if op%997 == 0 {
				checkTable(t, &tab, model)
			}
		}
		checkTable(t, &tab, model)
		tab.Clear()
		checkTable(t, &tab, map[Key]int{})
	}
}

// TestTableDeleteWrapsAround fills the last slots of the array and the first
// ones with keys whose probe runs cross the end, then deletes them in every
// order of a seeded shuffle: backward shifts must carry keys across the wrap.
func TestTableDeleteWrapsAround(t *testing.T) {
	var tab Table[int]
	tab.Put(1, 0) // the first array: 16 slots, which 7 keys do not grow
	tab.Delete(1)
	size := len(tab.slots)
	var wrap []Key
	for x := uint64(1); len(wrap) < 7; x++ {
		if k := Key(x); tab.home(k) >= size-2 {
			wrap = append(wrap, k)
		}
	}
	for seed := int64(0); seed < 50; seed++ {
		model := map[Key]int{}
		for i, k := range wrap {
			tab.Put(k, i)
			model[k] = i
		}
		if len(tab.slots) != size {
			t.Fatalf("the table grew to %d slots", len(tab.slots))
		}
		if tab.slots[0].key == marker {
			t.Fatal("no probe run crosses the end of the array")
		}
		order := rand.New(rand.NewSource(seed)).Perm(len(wrap))
		for _, i := range order {
			if _, ok := tab.Delete(wrap[i]); !ok {
				t.Fatalf("seed %d: key %d lost", seed, wrap[i])
			}
			delete(model, wrap[i])
			checkTable(t, &tab, model)
		}
	}
}

// TestTableGrowth inserts past several doublings, checks every key survives
// each, and that a sized table allocates nothing.
func TestTableGrowth(t *testing.T) {
	var tab Table[int]
	model := map[Key]int{}
	for i := 0; i < 5000; i++ {
		k := Key(uint64(i) << 40) // equal low bits: the home slot must come from the high hash bits
		tab.Put(k, i)
		model[k] = i
		if i&(i-1) == 0 {
			checkTable(t, &tab, model)
		}
	}
	checkTable(t, &tab, model)
	if a := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1000; i++ {
			k := Key(uint64(i) << 40)
			tab.Delete(k)
			tab.Put(k, i)
		}
	}); a != 0 {
		t.Fatalf("a sized table allocates %.1f times per 1,000 deletes and puts", a)
	}
}

// BenchmarkTable compares the table with a Go map at 30,000 keys, one
// MEM-PS shard's SSD-PS mapping on the cold benchmark: a get, and a get
// followed by an upsert of the same key.
func BenchmarkTable(b *testing.B) {
	const n = 30000
	ks := make([]Key, n)
	for i := range ks {
		ks[i] = Key(Mix64(uint64(i)))
	}
	var tab Table[uint64]
	m := make(map[Key]uint64)
	for i, k := range ks {
		tab.Put(k, uint64(i))
		m[k] = uint64(i)
	}
	var sink uint64
	b.Run("table/get", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, _ := tab.Get(ks[i%n])
			sink += v
		}
	})
	b.Run("map/get", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += m[ks[i%n]]
		}
	})
	b.Run("table/upsert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, _ := tab.Upsert(ks[i%n])
			*p++
		}
	})
	b.Run("map/upsert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := ks[i%n]
			v := m[k]
			m[k] = v + 1
		}
	})
	_ = sink
}
