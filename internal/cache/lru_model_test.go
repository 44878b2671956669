package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// modelLRU is the naive reference for LRU's documented semantics: order holds
// the unpinned keys and held the pinned ones, both most recent first.
type modelLRU struct {
	capacity    int
	order, held []uint64
	vals, pins  map[uint64]int
	evicted     []uint64
}

func drop(s []uint64, k uint64) []uint64 {
	if i := slices.Index(s, k); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}

func (m *modelLRU) front(k uint64) {
	if m.pins[k] == 0 {
		m.order = slices.Insert(drop(m.order, k), 0, k)
	}
}

func (m *modelLRU) shrink() {
	for len(m.vals) > m.capacity && len(m.order) > 1 {
		victim := m.order[len(m.order)-1]
		m.order = m.order[:len(m.order)-1]
		delete(m.vals, victim)
		m.evicted = append(m.evicted, victim)
	}
}

func (m *modelLRU) put(k uint64, v int) {
	_, had := m.vals[k]
	m.vals[k] = v
	m.front(k)
	if !had {
		m.shrink()
	}
}

func (m *modelLRU) pin(k uint64) {
	if m.pins[k]++; m.pins[k] == 1 {
		m.order = drop(m.order, k)
		m.held = slices.Insert(m.held, 0, k)
	}
}

func (m *modelLRU) unpin(k uint64) {
	if m.pins[k] == 0 {
		return
	}
	if m.pins[k]--; m.pins[k] == 0 {
		m.held = drop(m.held, k)
		m.front(k)
		m.shrink()
	}
}

func (m *modelLRU) remove(k uint64) {
	m.order, m.held = drop(m.order, k), drop(m.held, k)
	delete(m.vals, k)
	delete(m.pins, k)
}

// TestLRUMatchesModel drives seeded random operation sequences through the
// LRU and the reference model and demands the same answers, the same contents
// in the same order, and the same eviction callbacks in the same order.
func TestLRUMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(6)
		keySpace := uint64(2 + rng.Intn(14))
		var evicted []uint64
		c := NewLRU[int](capacity, func(k uint64, _ int) { evicted = append(evicted, k) })
		m := &modelLRU{capacity: capacity, vals: map[uint64]int{}, pins: map[uint64]int{}}
		for step := 0; step < 600; step++ {
			k := uint64(rng.Int63()) % keySpace
			_, present := m.vals[k]
			op := rng.Intn(8)
			desc := fmt.Sprintf("seed %d step %d op %d key %d", seed, step, op, k)
			switch op {
			case 0, 1:
				c.Put(k, step)
				m.put(k, step)
			case 2:
				v, ok := c.Get(k)
				if ok != present || (ok && v != m.vals[k]) {
					t.Fatalf("%s: Get = %d,%v, model %d,%v", desc, v, ok, m.vals[k], present)
				}
				if present {
					m.front(k)
				}
			case 3:
				if v, ok := c.Peek(k); ok != present || (ok && v != m.vals[k]) {
					t.Fatalf("%s: Peek = %d,%v, model %d,%v", desc, v, ok, m.vals[k], present)
				}
			case 4, 5:
				if c.Pin(k) != present {
					t.Fatalf("%s: Pin = %v", desc, !present)
				}
				if present {
					m.pin(k)
				}
			case 6:
				if c.Unpin(k) != present {
					t.Fatalf("%s: Unpin = %v", desc, !present)
				}
				if present {
					m.unpin(k)
				}
			case 7:
				if v, ok := c.Remove(k); ok != present || (ok && v != m.vals[k]) {
					t.Fatalf("%s: Remove = %d,%v, model %d,%v", desc, v, ok, m.vals[k], present)
				}
				m.remove(k)
			}
			if want := append(slices.Clone(m.held), m.order...); !slices.Equal(c.Keys(), want) {
				t.Fatalf("%s: keys %v, model %v", desc, c.Keys(), want)
			}
			if !slices.Equal(evicted, m.evicted) {
				t.Fatalf("%s: evictions %v, model %v", desc, evicted, m.evicted)
			}
			if c.PinnedLen() != len(m.held) || c.Pinned(k) != (m.pins[k] > 0) {
				t.Fatalf("%s: pinned %d (key pinned %v), model %d (%v)", desc, c.PinnedLen(), c.Pinned(k), len(m.held), m.pins[k] > 0)
			}
			if c.PinnedLen() < capacity && c.Len() > capacity {
				t.Fatalf("%s: len %d over capacity %d with only %d pinned", desc, c.Len(), capacity, c.PinnedLen())
			}
		}
	}
}

func TestLRUHotOperationsDoNotAllocate(t *testing.T) {
	c := NewLRU[int](8, nil)
	for k := uint64(0); k < 8; k++ {
		c.Put(k, int(k))
	}
	k := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		k = (k + 3) % 8
		c.Get(k)
		c.Peek(k)
		c.Pin(k)
		c.Pin(k)
		c.Get(k) // pinned: off the eviction order
		c.Put(k, 1)
		c.Unpin(k)
		c.Unpin(k)
		c.Put(k, 2)
	})
	if allocs != 0 {
		t.Fatalf("Get/Peek/Pin/Unpin/Put of an existing key allocated %.1f times per run", allocs)
	}
}

// BenchmarkLRUPutUnderPins inserts new keys into a full cache of capacity 512
// whose pinned working set is far larger than the capacity — the MEM-PS
// during a cold batch. ns/op must not depend on the pinned count.
func BenchmarkLRUPutUnderPins(b *testing.B) {
	for _, pinned := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("pinned=%dk", pinned>>10), func(b *testing.B) {
			c := NewLRU[int](512, nil)
			for k := 0; k < pinned; k++ {
				c.Put(uint64(k), k)
				c.Pin(uint64(k))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Put(uint64(pinned+i), i)
			}
		})
	}
}
