package memps

import (
	"testing"
	"time"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/interconnect"
	"hps/internal/keys"
	"hps/internal/ps"
	"hps/internal/ssdps"
)

func newStore(t *testing.T, dim int, clock *hw.Counter) *ssdps.Store {
	t.Helper()
	ssd := hw.SSD{
		ReadBandwidthBytesPerSec:  1 << 30,
		WriteBandwidthBytesPerSec: 1 << 30,
		ReadLatency:               10 * time.Microsecond,
		WriteLatency:              10 * time.Microsecond,
		BlockBytes:                4096,
	}
	dev, err := blockio.NewDevice(t.TempDir(), ssd, clock)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ssdps.Open(dev, ssdps.Config{Dim: dim, ParamsPerFile: 32})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// keysOn returns the n smallest positive keys a two-node topology places on
// node, ascending.
func keysOn(node, n int) []keys.Key {
	topo := cluster.Topology{Nodes: 2, GPUsPerNode: 1}
	var out []keys.Key
	for k := keys.Key(1); len(out) < n; k++ {
		if topo.NodeOf(k) == node {
			out = append(out, k)
		}
	}
	return out
}

func singleNode(t *testing.T, lru, lfu int) *MemPS {
	t.Helper()
	clock := hw.NewCounter()
	m, err := New(Config{
		NodeID:     0,
		Dim:        4,
		Topology:   cluster.Topology{Nodes: 1, GPUsPerNode: 2},
		Store:      newStore(t, 4, clock),
		Clock:      clock,
		LRUEntries: lru,
		LFUEntries: lfu,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// prepare assembles ks through PrepareInto, returning the working set and
// the block of its values: one row per unique key, in sorted key order.
func prepare(t testing.TB, m *MemPS, ks []keys.Key) (*WorkingSet, *ps.ValueBlock) {
	t.Helper()
	blk := ps.NewValueBlock(m.Dim())
	ws, err := m.PrepareInto(ks, blk)
	if err != nil {
		t.Fatal(err)
	}
	return ws, blk
}

// weightDeltas builds a push block giving every key of ks the delta w(k) on
// weight 0 and freq on the reference count.
func weightDeltas(dim int, ks []keys.Key, w func(keys.Key) float32, freq uint32) *ps.ValueBlock {
	blk := ps.NewValueBlock(dim)
	blk.Reset(dim, ks)
	for i, k := range ks {
		blk.WeightsRow(i)[0] = w(k)
		blk.Freq[i] = freq
		blk.Present[i] = true
	}
	return blk
}

// push merges blk into m through PushBlock.
func push(t testing.TB, m *MemPS, blk *ps.ValueBlock) {
	t.Helper()
	if err := m.PushBlock(ps.PushBlockRequest{Shard: ps.NoShard, Block: blk}); err != nil {
		t.Fatal(err)
	}
}

// lookupAll reads ks through HandleLookupBlock, keyed by the keys found.
func lookupAll(t testing.TB, m *MemPS, ks []keys.Key) map[keys.Key]*embedding.Value {
	t.Helper()
	blk := ps.NewValueBlock(m.Dim())
	if err := m.HandleLookupBlock(ks, blk); err != nil {
		t.Fatal(err)
	}
	out := make(map[keys.Key]*embedding.Value, len(ks))
	for i, k := range ks {
		if v := blk.Value(i); v != nil {
			out[k] = v
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	clock := hw.NewCounter()
	store := newStore(t, 4, clock)
	if _, err := New(Config{Dim: 4, Topology: cluster.Topology{Nodes: 1, GPUsPerNode: 1}}); err == nil {
		t.Fatal("nil store should fail")
	}
	if _, err := New(Config{Dim: 0, Store: store, Topology: cluster.Topology{Nodes: 1, GPUsPerNode: 1}}); err == nil {
		t.Fatal("zero dim should fail")
	}
	if _, err := New(Config{Dim: 4, Store: store, Topology: cluster.Topology{Nodes: 0, GPUsPerNode: 1}}); err == nil {
		t.Fatal("bad topology should fail")
	}
	if _, err := New(Config{Dim: 4, Store: store, Topology: cluster.Topology{Nodes: 2, GPUsPerNode: 1}}); err == nil {
		t.Fatal("multi-node without transport should fail")
	}
	// Memory budget derives cache sizes.
	m, err := New(Config{
		Dim: 4, Store: store,
		Topology:          cluster.Topology{Nodes: 1, GPUsPerNode: 1},
		MemoryBudgetBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 4 || m.NodeID() != 0 {
		t.Fatal("accessors wrong")
	}
}

func TestPrepareCreatesAndCachesParameters(t *testing.T) {
	m := singleNode(t, 64, 64)
	ws, blk := prepare(t, m, []keys.Key{1, 2, 3, 2, 1})
	if blk.Len() != 3 || blk.PresentCount() != 3 {
		t.Fatalf("working set has %d rows (%d present), want 3 (deduplicated)", blk.Len(), blk.PresentCount())
	}
	if len(ws.LocalKeys) != 3 || len(ws.RemoteKeys) != 0 {
		t.Fatalf("local/remote split wrong: %d/%d", len(ws.LocalKeys), len(ws.RemoteKeys))
	}
	if ws.Stats.NewParams != 3 || ws.Stats.CacheMisses != 3 {
		t.Fatalf("stats = %+v", ws.Stats)
	}
	if err := m.CompleteBatch(ws); err != nil {
		t.Fatal(err)
	}
	// Second batch touching the same keys hits the cache.
	ws2, _ := prepare(t, m, []keys.Key{1, 2, 3})
	if ws2.Stats.CacheHits != 3 || ws2.Stats.NewParams != 0 {
		t.Fatalf("second batch stats = %+v", ws2.Stats)
	}
	m.CompleteBatch(ws2)
	if m.Stats().BatchesPrepared != 2 {
		t.Fatal("batch counter wrong")
	}
}

func TestWorkingSetValuesAreCopies(t *testing.T) {
	m := singleNode(t, 64, 64)
	ws, blk := prepare(t, m, []keys.Key{7})
	blk.WeightsRow(0)[0] = 1e9 // mutate the copy
	m.CompleteBatch(ws)
	if v := m.Lookup(7); v.Weights[0] == 1e9 {
		t.Fatal("working-set values must be copies of the authoritative parameters")
	}
}

func TestApplyUpdates(t *testing.T) {
	m := singleNode(t, 64, 64)
	ws, _ := prepare(t, m, []keys.Key{5})
	before := m.Lookup(5).Weights[0]

	push(t, m, weightDeltas(4, []keys.Key{5}, func(keys.Key) float32 { return 2.5 }, 3))
	m.CompleteBatch(ws)
	after := m.Lookup(5)
	if after.Weights[0] != before+2.5 {
		t.Fatalf("delta not applied: %v -> %v", before, after.Weights[0])
	}
	if after.Freq < 3 {
		t.Fatalf("freq not accumulated: %d", after.Freq)
	}
	// An empty update is a no-op, not an error.
	push(t, m, ps.NewValueBlock(4))
}

func TestEvictionDumpAndReload(t *testing.T) {
	clock := hw.NewCounter()
	store := newStore(t, 4, clock)
	m, err := New(Config{
		NodeID:        0,
		Dim:           4,
		Topology:      cluster.Topology{Nodes: 1, GPUsPerNode: 1},
		Store:         store,
		Clock:         clock,
		LRUEntries:    8,
		LFUEntries:    8,
		DumpBatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Touch many distinct parameters so early ones are evicted and dumped.
	var lastWS *WorkingSet
	for batch := 0; batch < 10; batch++ {
		ks := make([]keys.Key, 8)
		for i := range ks {
			ks[i] = keys.Key(batch*8 + i)
		}
		ws, _ := prepare(t, m, ks)
		// Give every parameter a recognizable value via an update.
		push(t, m, weightDeltas(4, ks, func(k keys.Key) float32 { return float32(k) + 1000 }, 0))
		if err := m.CompleteBatch(ws); err != nil {
			t.Fatal(err)
		}
		lastWS = ws
	}
	_ = lastWS
	if err := m.Flush(); err != nil { // waits out the background write
		t.Fatal(err)
	}
	if m.Stats().Dumped == 0 {
		t.Fatal("expected evicted parameters to be dumped to the SSD-PS")
	}
	if store.Len() == 0 {
		t.Fatal("SSD-PS should hold dumped parameters")
	}
	// Re-preparing an old, evicted parameter must load it from SSD with its
	// updated value, not recreate it.
	ws, blk := prepare(t, m, []keys.Key{0})
	got := blk.WeightsRow(0)[0]
	if got < 999 {
		t.Fatalf("evicted parameter lost its update: %v", got)
	}
	if ws.Stats.NewParams != 0 {
		t.Fatal("old parameter must not be recreated")
	}
	m.CompleteBatch(ws)
}

func TestFlushPersistsEverything(t *testing.T) {
	m := singleNode(t, 64, 64)
	ws, _ := prepare(t, m, []keys.Key{1, 2, 3})
	push(t, m, weightDeltas(4, ws.LocalKeys, func(keys.Key) float32 { return 7 }, 0))
	m.CompleteBatch(ws)
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if m.Store().Len() != 3 {
		t.Fatalf("store has %d params after flush, want 3", m.Store().Len())
	}
	// Flush again (empty) is a no-op.
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	// Values remain reachable after flush.
	v := m.Lookup(1)
	if v == nil || v.Weights[0] == 0 {
		t.Fatal("flushed value unreachable or lost")
	}
}

func TestCacheHitRateGrowsOnSkewedStream(t *testing.T) {
	m := singleNode(t, 256, 256)
	hot := make([]keys.Key, 64)
	for i := range hot {
		hot[i] = keys.Key(i)
	}
	// First pass: cold cache.
	ws, _ := prepare(t, m, hot)
	m.CompleteBatch(ws)
	coldRate := m.CacheStats().HitRate()
	// Repeat passes over the hot set: hit rate must climb.
	for i := 0; i < 5; i++ {
		ws, _ := prepare(t, m, hot)
		m.CompleteBatch(ws)
	}
	warmRate := m.CacheStats().HitRate()
	if warmRate <= coldRate {
		t.Fatalf("hit rate should grow: cold %v warm %v", coldRate, warmRate)
	}
	m.ResetCacheStats()
	if m.CacheStats().Hits != 0 {
		t.Fatal("ResetCacheStats failed")
	}
}

func TestMultiNodeRemotePull(t *testing.T) {
	clock0 := hw.NewCounter()
	clock1 := hw.NewCounter()
	topo := cluster.Topology{Nodes: 2, GPUsPerNode: 1}
	transport := cluster.NewLocalTransport(4)
	profile := hw.DefaultGPUNode()

	m0, err := New(Config{
		NodeID: 0, Dim: 4, Topology: topo, Transport: transport,
		Store: newStore(t, 4, clock0), Clock: clock0,
		Fabric:     interconnect.NewFabric(profile, clock0),
		LRUEntries: 64, LFUEntries: 64, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := New(Config{
		NodeID: 1, Dim: 4, Topology: topo, Transport: transport,
		Store: newStore(t, 4, clock1), Clock: clock1,
		Fabric:     interconnect.NewFabric(profile, clock1),
		LRUEntries: 64, LFUEntries: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	transport.Register(0, m0)
	transport.Register(1, m1)

	// Node 0 prepares a batch touching both shards.
	mine, theirs := keysOn(0, 2), keysOn(1, 2)
	batch := keys.Union(mine, theirs)
	ws, blk := prepare(t, m0, batch)
	if len(ws.LocalKeys) != 2 || len(ws.RemoteKeys) != 2 {
		t.Fatalf("split = %d local / %d remote", len(ws.LocalKeys), len(ws.RemoteKeys))
	}
	for i, k := range blk.Keys {
		if !blk.Present[i] {
			t.Fatalf("missing working value for key %d", k)
		}
	}
	if blk.Len() != 4 {
		t.Fatalf("working set has %d rows, want 4", blk.Len())
	}
	if got := ws.Stats.Work[hw.ResNetwork]; got.Ops != 1 || got.Amount <= 0 {
		t.Fatalf("remote pull counted %+v, want one network transfer", got)
	}
	if got := clock0.Total()[hw.ResNetwork]; got != ws.Stats.Work[hw.ResNetwork] {
		t.Fatalf("node 0's counter saw %+v of network work, the pull %+v", got, ws.Stats.Work[hw.ResNetwork])
	}
	// The remote keys now live in node 1's cache (it served them).
	if m1.CacheStats().Misses == 0 {
		t.Fatal("owner should have looked up the served keys")
	}
	m0.CompleteBatch(ws)

	// Apply updates on both nodes: each applies only the keys it owns.
	deltas := weightDeltas(4, batch, func(keys.Key) float32 { return 5 }, 0)
	push(t, m0, deltas)
	push(t, m1, deltas)
	if m0.Lookup(theirs[0]) != nil {
		t.Fatalf("node 0 must not own key %d", theirs[0])
	}
	v := m1.Lookup(theirs[0])
	if v == nil {
		t.Fatalf("node 1 should own key %d", theirs[0])
	}
	if v.Weights[0] == 0 {
		t.Fatal("update to remote key should be applied at its owner")
	}
}

// TestHandlePullBlockWireMatchesBlock asserts the zero-intermediate wire
// serving path produces byte-for-byte the frame the block path would: the
// same working set served through HandlePullBlock + AppendWire and through
// HandlePullBlockWire must encode identically, across cache hits, SSD
// reloads and first references.
func TestHandlePullBlockWireMatchesBlock(t *testing.T) {
	m := singleNode(t, 16, 16)
	ks := []keys.Key{3, 7, 11, 19, 23}
	// Mixed serving states: train some keys in, evict one to the SSD, and
	// leave the rest to be materialized on first reference.
	prepare(t, m, ks[:2])
	if _, err := m.Evict([]keys.Key{ks[1]}); err != nil {
		t.Fatal(err)
	}

	// The wire handler materializes first references, so serve the block path
	// against an identically-seeded twin to compare equal first-reference
	// values (serving order is the request order for both).
	twin := singleNode(t, 16, 16)
	prepare(t, twin, ks[:2])
	if _, err := twin.Evict([]keys.Key{ks[1]}); err != nil {
		t.Fatal(err)
	}

	wire, err := m.HandlePullBlockWire(ks, nil)
	if err != nil {
		t.Fatal(err)
	}
	blk := ps.NewValueBlock(twin.Dim())
	if err := twin.HandlePullBlock(ks, blk); err != nil {
		t.Fatal(err)
	}
	want := blk.AppendWire(nil)
	if len(wire) != len(want) {
		t.Fatalf("frame sizes differ: wire %d, block %d", len(wire), len(want))
	}
	for i := range want {
		if wire[i] != want[i] {
			t.Fatalf("byte %d differs: %d != %d", i, wire[i], want[i])
		}
	}

	// Foreign keys are rejected, exactly like the block path.
	clock := hw.NewCounter()
	multi, err := New(Config{
		NodeID:     0,
		Dim:        4,
		Topology:   cluster.Topology{Nodes: 2, GPUsPerNode: 1},
		Transport:  cluster.NoRoute{},
		Store:      newStore(t, 4, clock),
		Clock:      clock,
		LRUEntries: 16,
		LFUEntries: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := multi.HandlePullBlockWire(keysOn(1, 1), nil); err == nil {
		t.Fatal("expected foreign-key rejection")
	}
}

func TestHandlePullRejectsForeignKeys(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, GPUsPerNode: 1}
	transport := cluster.NewLocalTransport(4)
	clock := hw.NewCounter()
	m0, err := New(Config{
		NodeID: 0, Dim: 4, Topology: topo, Transport: transport,
		Store: newStore(t, 4, clock), Clock: clock, LRUEntries: 16, LFUEntries: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Key 1 belongs to node 1; node 0 must refuse to serve it.
	blk := ps.NewValueBlock(4)
	if err := m0.HandlePullBlock([]keys.Key{1}, blk); err == nil {
		t.Fatal("HandlePullBlock should reject keys the node does not own")
	}
	if err := m0.HandlePullBlock([]keys.Key{2}, blk); err != nil {
		t.Fatal(err)
	}
}

func TestLookupUnknownKey(t *testing.T) {
	m := singleNode(t, 16, 16)
	if v := m.Lookup(999); v != nil {
		t.Fatal("unknown key should return nil")
	}
}

func TestTierInterface(t *testing.T) {
	m := singleNode(t, 64, 64)
	var tier ps.Tier = m
	if tier.Name() != "mem-ps" {
		t.Fatalf("name = %q", tier.Name())
	}

	// Tier pull creates on first reference and does not pin.
	res := ps.NewValueBlock(4)
	if err := tier.PullInto(ps.PullRequest{Shard: ps.NoShard, Keys: []keys.Key{1, 2, 3}}, res); err != nil {
		t.Fatal(err)
	}
	if res.PresentCount() != 3 {
		t.Fatalf("pulled %d values", res.PresentCount())
	}
	for _, k := range []keys.Key{1, 2, 3} {
		if m.cache.Pinned(uint64(k)) {
			t.Fatalf("tier pull must not pin key %d", k)
		}
	}

	// Tier push merges deltas into the owned shard.
	delta := weightDeltas(4, []keys.Key{2}, func(keys.Key) float32 { return 2.5 }, 0)
	if err := tier.PushBlock(ps.PushBlockRequest{Shard: ps.NoShard, Block: delta}); err != nil {
		t.Fatal(err)
	}
	if got := m.Lookup(2).Weights[0]; got != res.WeightsRow(1)[0]+2.5 {
		t.Fatalf("tier push not applied: %v", got)
	}

	st := tier.TierStats()
	if st.Pulls == 0 || st.Pushes == 0 || st.KeysPulled < 3 || st.KeysPushed != 1 {
		t.Fatalf("uniform stats = %+v", st)
	}
}

func TestEvictDemotesToSSD(t *testing.T) {
	m := singleNode(t, 64, 64)
	ws, _ := prepare(t, m, []keys.Key{1, 2, 3, 4})

	// Pinned working parameters must survive eviction.
	if n, err := m.Evict([]keys.Key{1, 2}); err != nil || n != 0 {
		t.Fatalf("evict of pinned keys = (%d, %v), want (0, nil)", n, err)
	}
	if err := m.CompleteBatch(ws); err != nil {
		t.Fatal(err)
	}

	// Unpinned keys demote to the SSD-PS.
	n, err := m.Evict([]keys.Key{1, 2})
	if err != nil || n != 2 {
		t.Fatalf("evict = (%d, %v), want (2, nil)", n, err)
	}
	if !m.Store().Contains(1) || !m.Store().Contains(2) {
		t.Fatal("evicted parameters must be on the SSD")
	}
	// Still readable through the tier (reloaded from SSD).
	res := ps.NewValueBlock(4)
	if err := m.PullInto(ps.PullRequest{Shard: ps.NoShard, Keys: []keys.Key{1}}, res); err != nil || res.PresentCount() != 1 {
		t.Fatalf("pull after evict = (%d rows present, %v)", res.PresentCount(), err)
	}
	if st := m.TierStats(); st.Evictions == 0 || st.KeysEvicted != 2 {
		t.Fatalf("evict stats = %+v", st)
	}

	// Evict(nil) flushes everything.
	if _, err := m.Evict(nil); err != nil {
		t.Fatal(err)
	}
	if m.cache.Len() != 0 {
		t.Fatal("Evict(nil) must empty the cache")
	}
}
