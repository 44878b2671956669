// Package gpu simulates the GPU devices that host the HBM-PS.
//
// A real deployment stores the working parameters in fixed-capacity
// open-addressing hash tables in GPU HBM (the cuDF concurrent_unordered_map,
// Section 4.1) and runs the dense network as CUDA kernels. This package
// reproduces the structural constraints of that environment — a bounded HBM
// byte budget per device, a fixed-capacity hash table whose capacity is set
// at construction because dynamic allocation is not available on the device,
// and concurrent worker access — while executing on the CPU and charging
// modelled kernel/memory time to a simtime.Clock.
package gpu

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hps/internal/embedding"
	"hps/internal/keys"
)

// ErrTableFull is returned by Insert when the hash table has no free slot.
var ErrTableFull = errors.New("gpu: hash table full")

// ErrKeyNotFound is returned by Accumulate when the key was never inserted.
var ErrKeyNotFound = errors.New("gpu: key not found")

const tableShards = 64

// HashTable is a fixed-capacity open-addressing hash table mapping parameter
// keys to embedding values. The capacity is fixed at construction ("we fix
// the hash table capacity when we construct the hash table", Section 4.1);
// inserting beyond it fails with ErrTableFull. It is safe for concurrent use:
// the table is divided into shards, each protected by its own lock, which
// mirrors the per-bucket atomics of the GPU implementation.
type HashTable struct {
	dim      int
	capacity int
	shards   [tableShards]tableShard
	size     atomic.Int64
}

type tableShard struct {
	mu    sync.RWMutex
	slots []tableSlot
}

type tableSlot struct {
	used    bool
	deleted bool // tombstone: slot freed by Delete, probe sequences continue past it
	key     keys.Key
	value   *embedding.Value
}

// NewHashTable constructs a table able to hold capacity values of the given
// embedding dimension. The table allocates a 2x slot headroom (a 0.5 load
// factor) so that open addressing stays efficient and the random key-to-shard
// assignment rarely overflows an individual shard; Capacity reports the
// actual number of allocated slots.
func NewHashTable(capacity, dim int) *HashTable {
	perShard := slotsPerShard(capacity)
	t := &HashTable{dim: dim, capacity: perShard * tableShards}
	for i := range t.shards {
		t.shards[i].slots = make([]tableSlot, perShard)
	}
	return t
}

// slotsPerShard returns the per-shard slot count NewHashTable allocates for
// the given nominal capacity.
func slotsPerShard(capacity int) int {
	if capacity < tableShards {
		capacity = tableShards
	}
	return (2*capacity+tableShards-1)/tableShards + 8
}

// Reusable reports whether a cleared instance of this table can stand in for
// a fresh NewHashTable(capacity, dim): the dimension matches, every shard has
// at least the slots a fresh table would get, and the table is not so
// oversized (more than 4x) that reusing it would hoard HBM for a now-small
// working set. Devices use it to recycle tables across training batches.
func (t *HashTable) Reusable(capacity, dim int) bool {
	need := slotsPerShard(capacity)
	have := len(t.shards[0].slots)
	return t.dim == dim && have >= need && have <= 4*need
}

// Capacity returns the fixed capacity of the table.
func (t *HashTable) Capacity() int { return t.capacity }

// Dim returns the embedding dimension of stored values.
func (t *HashTable) Dim() int { return t.dim }

// Len returns the number of stored values.
func (t *HashTable) Len() int { return int(t.size.Load()) }

// BytesPerEntry returns the HBM footprint charged per slot: the encoded value
// plus the 8-byte key and a used flag padded to 8 bytes.
func BytesPerEntry(dim int) int64 {
	return int64(embedding.EncodedSize(dim)) + 16
}

// SizeBytes returns the HBM footprint of the whole table (all slots are
// allocated up front, used or not).
func (t *HashTable) SizeBytes() int64 {
	return int64(t.capacity) * BytesPerEntry(t.dim)
}

func (t *HashTable) shardFor(k keys.Key) *tableShard { return &t.shards[shardOf(k)] }

// probe finds the slot index of k in the shard, or the first free slot if k
// is absent, using linear probing. Returns (index, found, hasFree).
func (s *tableShard) probe(k keys.Key) (int, bool, bool) {
	n := len(s.slots)
	start := int(k.Hash()>>32) % n
	firstFree := -1
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		sl := &s.slots[idx]
		if !sl.used {
			if firstFree < 0 {
				firstFree = idx
			}
			if !sl.deleted {
				// A never-used slot ends the probe sequence; a tombstone left
				// by Delete is reusable but the sequence continues past it.
				return firstFree, false, true
			}
			continue
		}
		if sl.key == k {
			return idx, true, true
		}
	}
	if firstFree >= 0 {
		return firstFree, false, true
	}
	return -1, false, false
}

// Insert stores value under key, replacing any existing value. It returns
// ErrTableFull if the key is new and its shard has no free slot.
func (t *HashTable) Insert(k keys.Key, v *embedding.Value) error {
	s := t.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, found, hasFree := s.probe(k)
	if found {
		s.slots[idx].value = v
		return nil
	}
	if !hasFree {
		return ErrTableFull
	}
	s.slots[idx] = tableSlot{used: true, key: k, value: v}
	t.size.Add(1)
	return nil
}

// Get returns the value stored under key.
func (t *HashTable) Get(k keys.Key) (*embedding.Value, bool) {
	s := t.shardFor(k)
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx, found, _ := s.probe(k)
	if !found {
		return nil, false
	}
	return s.slots[idx].value, true
}

// View calls fn with the value stored under key while holding the shard's
// read lock — the safe way to read or copy a value that concurrent workers
// may be updating in place (Get returns the pointer after the lock is
// released, so the caller's read would race with Update). It returns false
// for unknown keys.
func (t *HashTable) View(k keys.Key, fn func(v *embedding.Value)) bool {
	s := t.shardFor(k)
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx, found, _ := s.probe(k)
	if !found {
		return false
	}
	fn(s.slots[idx].value)
	return true
}

// batchScratch is the pooled per-call scratch of the batched calls: the
// request indices grouped by table shard in one flat buffer (a counting sort,
// so a scratch the pool has to make anew costs a handful of allocations, not
// one per shard), and the resolved slot indices of the shard being probed.
type batchScratch struct {
	shard []uint8
	idx   []int32
	start [tableShards + 1]int32
	slots []int32
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// shardOf re-mixes the key's hash so the shard assignment is statistically
// independent of the GPU partition policy (which uses Hash() % #GPUs);
// otherwise a partitioned key set would map onto a correlated subset of
// shards and overflow them.
func shardOf(k keys.Key) int { return int(keys.Mix64(k.Hash()) % tableShards) }

// group buckets the indices of ks by table shard: afterwards bucket(b) is
// shard b's indices, in request order.
func (sc *batchScratch) group(ks []keys.Key) {
	if n := len(ks); cap(sc.idx) < n {
		sc.shard, sc.idx = make([]uint8, n), make([]int32, n)
	}
	sc.shard, sc.idx = sc.shard[:len(ks)], sc.idx[:len(ks)]
	var next [tableShards]int32
	for i, k := range ks {
		b := shardOf(k)
		sc.shard[i] = uint8(b)
		next[b]++
	}
	for b := range next {
		sc.start[b+1] = sc.start[b] + next[b]
		next[b] = sc.start[b]
	}
	for i, b := range sc.shard {
		sc.idx[next[b]] = int32(i)
		next[b]++
	}
}

func (sc *batchScratch) bucket(b int) []int32 { return sc.idx[sc.start[b]:sc.start[b+1]] }

// InsertBatch is Insert of value(i) under ks[i] for every i, with the keys
// bucketed by shard first so each shard's write lock is taken once. It stops
// at the first new key whose shard has no free slot and returns ErrTableFull;
// keys inserted before it stay.
func (t *HashTable) InsertBatch(ks []keys.Key, value func(i int) *embedding.Value) error {
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	sc.group(ks)
	added := int64(0)
	for b := range t.shards {
		idxs := sc.bucket(b)
		if len(idxs) == 0 {
			continue
		}
		s := &t.shards[b]
		s.mu.Lock()
		for _, i := range idxs {
			idx, found, hasFree := s.probe(ks[i])
			switch {
			case found:
				s.slots[idx].value = value(int(i))
			case !hasFree:
				s.mu.Unlock()
				t.size.Add(added)
				return ErrTableFull
			default:
				s.slots[idx] = tableSlot{used: true, key: ks[i], value: value(int(i))}
				added++
			}
		}
		s.mu.Unlock()
	}
	t.size.Add(added)
	return nil
}

// GatherBatch calls visit(i, v) under the shard's read lock for every ks[i]
// stored in the table — View's contract, batched: the requested keys are
// bucketed by shard first, so each shard's lock is taken once for all of its
// keys instead of once per key. Visits are grouped by shard, not in request
// order; i is always the index into ks. Keys the table does not hold are
// skipped; if there is one, ok is false and missing is one of them (the
// working-set contract makes a miss a bug, so callers report it).
func (t *HashTable) GatherBatch(ks []keys.Key, visit func(i int, v *embedding.Value)) (missing keys.Key, ok bool) {
	return t.visitBatch(ks, false, visit)
}

// UpdateBatch is GatherBatch under each shard's write lock: visit may modify
// the value in place, as with Update. Every stored key is visited exactly
// once; a missing key is skipped and reported as by GatherBatch.
func (t *HashTable) UpdateBatch(ks []keys.Key, visit func(i int, v *embedding.Value)) (missing keys.Key, ok bool) {
	return t.visitBatch(ks, true, visit)
}

// visitBatch is GatherBatch and UpdateBatch: visit each shard's keys under
// one acquisition of its lock (exclusive if write).
func (t *HashTable) visitBatch(ks []keys.Key, write bool, visit func(i int, v *embedding.Value)) (missing keys.Key, ok bool) {
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	sc.group(ks)
	ok = true
	for b := range t.shards {
		idxs := sc.bucket(b)
		if len(idxs) == 0 {
			continue
		}
		s := &t.shards[b]
		if write {
			s.mu.Lock()
		} else {
			s.mu.RLock()
		}
		// Two passes under the one lock: probe every key to its slot first —
		// a tight loop over the slot array while its lines are hot — then run
		// the visits, whose row copies would otherwise churn the cache between
		// consecutive probes.
		sc.slots = sc.slots[:0]
		for _, i := range idxs {
			idx, found, _ := s.probe(ks[i])
			if !found {
				if ok {
					missing, ok = ks[i], false
				}
				idx = -1
			}
			sc.slots = append(sc.slots, int32(idx))
		}
		for j, i := range idxs {
			if slot := sc.slots[j]; slot >= 0 {
				visit(int(i), s.slots[slot].value)
			}
		}
		if write {
			s.mu.Unlock()
		} else {
			s.mu.RUnlock()
		}
	}
	return missing, ok
}

// Accumulate adds delta element-wise onto the embedding weights stored under
// key and increments the value's reference counter — the accumulate
// operation of Algorithm 2. It returns ErrKeyNotFound for unknown keys.
func (t *HashTable) Accumulate(k keys.Key, delta []float32) error {
	s := t.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, found, _ := s.probe(k)
	if !found {
		return ErrKeyNotFound
	}
	v := s.slots[idx].value
	for i := 0; i < len(v.Weights) && i < len(delta); i++ {
		v.Weights[i] += delta[i]
	}
	v.Freq++
	return nil
}

// Update applies fn to the value stored under key while holding the shard
// lock (used to run the sparse optimizer in place). It returns
// ErrKeyNotFound for unknown keys.
func (t *HashTable) Update(k keys.Key, fn func(v *embedding.Value)) error {
	s := t.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, found, _ := s.probe(k)
	if !found {
		return ErrKeyNotFound
	}
	fn(s.slots[idx].value)
	return nil
}

// Delete removes the value stored under key, leaving a tombstone so that
// probe sequences passing through the slot stay intact. The slot is reusable
// by later inserts. It reports whether the key was present — the delete
// operation backing HBM-PS partial eviction (demotion of individual keys out
// of the working set).
func (t *HashTable) Delete(k keys.Key) bool {
	s := t.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, found, _ := s.probe(k)
	if !found {
		return false
	}
	s.slots[idx] = tableSlot{deleted: true}
	t.size.Add(-1)
	return true
}

// Range calls fn for every stored (key, value) pair until fn returns false.
// The table must not be mutated during Range.
func (t *HashTable) Range(fn func(k keys.Key, v *embedding.Value) bool) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for j := range s.slots {
			if s.slots[j].used {
				if !fn(s.slots[j].key, s.slots[j].value) {
					s.mu.RUnlock()
					return
				}
			}
		}
		s.mu.RUnlock()
	}
}

// Keys returns all stored keys in unspecified order.
func (t *HashTable) Keys() []keys.Key {
	out := make([]keys.Key, 0, t.Len())
	t.Range(func(k keys.Key, _ *embedding.Value) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Clear removes every entry, keeping the allocated capacity (the table is
// reused across training batches).
func (t *HashTable) Clear() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for j := range s.slots {
			s.slots[j] = tableSlot{}
		}
		s.mu.Unlock()
	}
	t.size.Store(0)
}

// String implements fmt.Stringer.
func (t *HashTable) String() string {
	return fmt.Sprintf("gpu.HashTable{len=%d cap=%d dim=%d}", t.Len(), t.capacity, t.dim)
}
