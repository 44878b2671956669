package memps

import (
	"testing"
	"time"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/ps"
	"hps/internal/ssdps"
)

// failableStore opens an SSD-PS over dir.
func failableStore(t *testing.T, dir string, clock *hw.Counter) *ssdps.Store {
	t.Helper()
	ssd := hw.SSD{
		ReadBandwidthBytesPerSec:  1 << 30,
		WriteBandwidthBytesPerSec: 1 << 30,
		ReadLatency:               10 * time.Microsecond,
		WriteLatency:              10 * time.Microsecond,
		BlockBytes:                4096,
	}
	dev, err := blockio.NewDevice(dir, ssd, clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	store, err := ssdps.Open(dev, ssdps.Config{Dim: 4, ParamsPerFile: 32})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// failableNode builds a single-node MEM-PS over dir whose SSD-PS can be made
// to fail by closing its device (breakStore) — removing dir would not do, the
// device holds its backing file open — and to work again by putting a store
// over a reopened device in its place (healStore).
func failableNode(t *testing.T, dir string, lru, lfu int) *MemPS {
	t.Helper()
	clock := hw.NewCounter()
	m, err := New(Config{
		NodeID:     0,
		Dim:        4,
		Topology:   cluster.Topology{Nodes: 1, GPUsPerNode: 1},
		Store:      failableStore(t, dir, clock),
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

func breakStore(t *testing.T, m *MemPS) {
	t.Helper()
	if err := m.Store().Device().Close(); err != nil {
		t.Fatal(err)
	}
}

func healStore(t *testing.T, m *MemPS) {
	t.Helper()
	store := failableStore(t, m.Store().Device().Dir(), m.cfg.Clock)
	if _, err := store.Recover(); err != nil {
		t.Fatal(err)
	}
	m.cfg.Store = store
}

// TestFlushFailureKeepsParameters is the data-loss regression test for the
// flush path: when Store.Dump fails, the drained cache and dump buffer must
// stay reachable in memory — a failed flush that silently discards the only
// copies turns a transient disk error into permanent parameter loss.
func TestFlushFailureKeepsParameters(t *testing.T) {
	dir := t.TempDir()
	m := failableNode(t, dir, 64, 64)

	ks := []keys.Key{1, 2, 3, 4, 5}
	ws, _ := prepare(t, m, ks)
	if err := m.CompleteBatch(ws); err != nil {
		t.Fatal(err)
	}
	before := lookupAll(t, m, ks)
	if len(before) != len(ks) {
		t.Fatalf("prepared %d keys, lookup found %d", len(ks), len(before))
	}

	// Break the store: every Dump now fails to write its file.
	breakStore(t, m)
	if err := m.Flush(); err == nil {
		t.Fatal("flush over a broken store must fail")
	}

	// The parameters survived the failed flush in memory.
	after := lookupAll(t, m, ks)
	for _, k := range ks {
		if after[k] == nil {
			t.Fatalf("key %d lost by the failed flush", k)
		}
		for i, w := range after[k].Weights {
			if w != before[k].Weights[i] {
				t.Fatalf("key %d weight %d changed across failed flush: %v != %v", k, i, w, before[k].Weights[i])
			}
		}
	}

	// Heal the store: the retried flush dumps everything that was buffered.
	healStore(t, m)
	if err := m.Flush(); err != nil {
		t.Fatalf("flush after healing the store: %v", err)
	}
	if got := m.Store().Len(); got != len(ks) {
		t.Fatalf("store holds %d parameters after recovered flush, want %d", got, len(ks))
	}
}

// TestEvictDumpFailureKeepsBuffer exercises the same bug on the Evict path:
// a failed dump must leave the demoted values in the dump buffer (reachable
// and retryable), not vanish them.
func TestEvictDumpFailureKeepsBuffer(t *testing.T) {
	dir := t.TempDir()
	m := failableNode(t, dir, 64, 64)

	ks := []keys.Key{10, 11, 12}
	ws, _ := prepare(t, m, ks)
	if err := m.CompleteBatch(ws); err != nil {
		t.Fatal(err)
	}
	breakStore(t, m)
	if _, err := m.Evict(ks); err == nil {
		t.Fatal("evict over a broken store must fail")
	}
	vals := lookupAll(t, m, ks)
	for _, k := range ks {
		if vals[k] == nil {
			t.Fatalf("key %d lost by the failed evict dump", k)
		}
	}
	healStore(t, m)
	if _, err := m.Evict(ks); err != nil {
		t.Fatalf("evict after healing the store: %v", err)
	}
	if got := m.Store().Len(); got != len(ks) {
		t.Fatalf("store holds %d parameters after recovered evict, want %d", got, len(ks))
	}
}

// transferSink is a ReplicateTransport that only counts what reaches it.
type transferSink struct{ transfers int }

func (s *transferSink) Replicate(int, uint64, uint64, *ps.ValueBlock) (int64, error) { return 0, nil }
func (s *transferSink) Transfer(_ int, blk *ps.ValueBlock) (int, error) {
	s.transfers++
	return blk.Len(), nil
}

// TestUnreadableSSDFailsReads checks that a read of rows held only on a
// broken SSD-PS fails instead of answering them absent: the lookup and the
// export return the error, and a reconcile that cannot read a chunk counts
// it in ReplicationStats.Errors instead of skipping it silently.
func TestUnreadableSSDFailsReads(t *testing.T) {
	m := failableNode(t, t.TempDir(), 64, 64)
	ks := []keys.Key{21, 22, 23}
	ws, _ := prepare(t, m, ks)
	if err := m.CompleteBatch(ws); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil { // the rows now live on the SSD-PS alone
		t.Fatal(err)
	}
	breakStore(t, m)

	blk := ps.NewValueBlock(4)
	if err := m.HandleLookupBlock(ks, blk); err == nil {
		t.Error("lookup of unreadable rows succeeded")
	}
	if n, err := m.ExportInto(ks, blk); err == nil {
		t.Errorf("export of unreadable rows succeeded with %d rows", n)
	}
	sink := &transferSink{}
	r := NewReplicator(m, sink, ReplicatorConfig{})
	defer r.Close()
	// Node 0 leaves a ring of node 1 alone: it must hand every row over.
	r.Reconcile(nil, cluster.NewRing([]int{1}))
	if st := r.Stats(); st.Errors == 0 || sink.transfers != 0 {
		t.Fatalf("reconcile over unreadable rows: %d errors, %d transfers; want >0, 0", st.Errors, sink.transfers)
	}
}
