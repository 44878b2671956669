package memps

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hps/internal/cluster"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/ps"
)

// ownedRows maps the sorted keys ks onto the sorted key sets of the nodes'
// blocks: rows[r][x] is ks[x]'s position in sets[r], -1 when it is absent —
// the row maps PrepareOwnedInto takes.
func ownedRows(ks []keys.Key, sets ...[]keys.Key) [][]int32 {
	rows := make([][]int32, len(sets))
	for r, set := range sets {
		rows[r] = make([]int32, len(ks))
		for x, k := range ks {
			rows[r][x] = -1
			if i, ok := slices.BinarySearch(set, k); ok {
				rows[r][x] = int32(i)
			}
		}
	}
	return rows
}

// blocksFor returns one fresh block per key set, shaped by it.
func blocksFor(dim int, sets ...[]keys.Key) []*ps.ValueBlock {
	out := make([]*ps.ValueBlock, len(sets))
	for i, set := range sets {
		out[i] = ps.NewValueBlock(dim)
		out[i].Reset(dim, set)
	}
	return out
}

// TestPrepareOwnedIntoPinsOnceUntilComplete resolves node 0's share of a
// two-node batch whose nodes reference some of the same keys: each owned key
// is copied into every block that wants it, is pinned once however many
// nodes want it — so one CompleteBatch releases it — and no row of a key the
// node does not own is touched.
func TestPrepareOwnedIntoPinsOnceUntilComplete(t *testing.T) {
	clock := hw.NewCounter()
	m, err := New(Config{
		NodeID:     0,
		Dim:        4,
		Topology:   cluster.Topology{Nodes: 2, GPUsPerNode: 1},
		Transport:  cluster.NoRoute{},
		Store:      newStore(t, 4, clock),
		Clock:      clock,
		LRUEntries: 2, // far below the union: the pins must hold the keys
		LFUEntries: 2,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	union, foreign := keysOn(0, 4), keysOn(1, 2) // union: node 0's keys
	a := keys.Union(union[:3], foreign[:1])
	b := keys.Union(union[1:], foreign[1:])
	blocks := blocksFor(4, a, b)
	ws, err := m.PrepareOwnedInto(union, blocks, ownedRows(union, a, b))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ws.LocalKeys, union) || ws.Stats.LocalKeys != 4 || ws.Stats.NewParams != 4 {
		t.Fatalf("working set = %+v", ws)
	}
	for r, blk := range blocks {
		for i, k := range blk.Keys {
			if !slices.Contains(union, k) {
				if blk.Present[i] {
					t.Fatalf("block %d: row of key %d, owned by node 1, was written", r, k)
				}
				continue
			}
			want := m.Lookup(k)
			if got := blk.Value(i); got == nil || !slices.Equal(got.Weights, want.Weights) || got.Freq != want.Freq {
				t.Fatalf("block %d: key %d is %+v, the MEM-PS holds %+v", r, k, got, want)
			}
		}
	}
	for _, k := range union {
		if !m.cache.Pinned(uint64(k)) {
			t.Fatalf("key %d not pinned by its batch", k)
		}
	}
	if err := m.CompleteBatch(&ws); err != nil {
		t.Fatal(err)
	}
	if n := m.PinnedKeys(); n != 0 {
		t.Fatalf("%d keys still pinned after CompleteBatch: a key both nodes wanted was pinned twice", n)
	}
	if st := m.Stats(); st.LocalKeys != 4 || st.RemoteKeys != 0 || st.BatchesPrepared != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// The rows a node receives from a peer count as remote keys, one pull
	// per peer.
	m.ReceivePeerRows(2)
	if st := m.Stats(); st.RemoteKeys != 2 || st.RemotePulls != 1 {
		t.Fatalf("after receiving 2 peer rows, stats = %+v", st)
	}

	// Malformed requests fail before anything is pinned.
	for name, call := range map[string]func() error{
		"unsorted": func() error {
			ks := []keys.Key{union[1], union[0]}
			_, err := m.PrepareOwnedInto(ks, blocksFor(4, ks), ownedRows(ks, ks))
			return err
		},
		"foreign": func() error {
			ks := keys.Union(union[:1], foreign[:1])
			_, err := m.PrepareOwnedInto(ks, blocksFor(4, ks), ownedRows(ks, ks))
			return err
		},
		"short row map": func() error {
			_, err := m.PrepareOwnedInto(union, blocksFor(4, a), [][]int32{{0}})
			return err
		},
	} {
		if call() == nil {
			t.Fatalf("%s request accepted", name)
		}
	}
	if n := m.PinnedKeys(); n != 0 {
		t.Fatalf("rejected requests left %d keys pinned", n)
	}
}

// failingPeer is a cluster.Transport standing in for node 1: it fails every
// pull with err when err is set, and otherwise answers with a zero row for
// each key asked, except the first when drop is set.
type failingPeer struct {
	err  error
	drop bool
}

func (p failingPeer) PullBlock(_ int, ks []keys.Key, dst *ps.ValueBlock) (int64, error) {
	if p.err != nil {
		return 0, p.err
	}
	dst.Reset(4, ks)
	for i := range ks {
		dst.Present[i] = !p.drop || i > 0
	}
	return 0, nil
}

// TestFailedPrepareUnpins fails a batch whose owned keys were already
// pinned — its cache hits before an SSD-PS load, every owned key before the
// peers' rows arrive — through both prepare entry points: the failed call
// must withdraw every pin it took, since CompleteBatch is never called for
// it. A peer that leaves out a row it was asked for fails the batch, naming
// the peer and the key, instead of having it trained on a made-up value.
func TestFailedPrepareUnpins(t *testing.T) {
	for _, tc := range []struct {
		name      string
		owned     bool // PrepareOwnedInto, else PrepareInto
		breakSSD  bool
		peer      failingPeer
		wantInErr string
	}{
		{name: "PrepareOwnedInto/ssd-ps failure", owned: true, breakSSD: true},
		{name: "PrepareInto/ssd-ps failure", breakSSD: true},
		{name: "PrepareInto/peer error", peer: failingPeer{err: errors.New("peer down")}, wantInErr: "peer down"},
		{name: "PrepareInto/peer drops a row", peer: failingPeer{drop: true}, wantInErr: "node 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := hw.NewCounter()
			m, err := New(Config{
				NodeID:     0,
				Dim:        4,
				Topology:   cluster.Topology{Nodes: 2, GPUsPerNode: 1},
				Transport:  tc.peer,
				Store:      failableStore(t, t.TempDir(), clock),
				Clock:      clock,
				LRUEntries: 8,
				LFUEntries: 8,
				Seed:       1,
			})
			if err != nil {
				t.Fatal(err)
			}
			owned := keysOn(0, 40)
			resolve := func(ks []keys.Key) {
				t.Helper()
				ws, err := m.PrepareOwnedInto(ks, blocksFor(4, ks), ownedRows(ks, ks))
				if err != nil {
					t.Fatal(err)
				}
				if err := m.CompleteBatch(&ws); err != nil {
					t.Fatal(err)
				}
			}
			resolve(owned)
			if _, err := m.Evict(nil); err != nil { // everything on the SSD-PS
				t.Fatal(err)
			}
			resolve(owned[:4]) // these four are cache hits from now on
			if tc.breakSSD {
				breakStore(t, m)
			}
			ks := owned[:10]
			if tc.owned {
				_, err = m.PrepareOwnedInto(ks, blocksFor(4, ks), ownedRows(ks, ks))
			} else {
				ks = keys.Union(ks, keysOn(1, 3))
				_, err = m.PrepareInto(ks, ps.NewValueBlock(4))
			}
			if err == nil {
				t.Fatal("the batch prepared")
			}
			if tc.wantInErr != "" && !strings.Contains(err.Error(), tc.wantInErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantInErr)
			}
			if n := m.PinnedKeys(); n != 0 {
				t.Fatalf("the failed prepare left %d keys pinned", n)
			}
		})
	}
}

// TestPrepareOwnedIntoAllocatesNothing pins the steady hot state of the
// in-process pull: two nodes' shares of cache-resident keys resolved and
// completed, with no allocation.
func TestPrepareOwnedIntoAllocatesNothing(t *testing.T) {
	m := singleNode(t, 256, 256)
	ks := make([]keys.Key, 64)
	for i := range ks {
		ks[i] = keys.Key(i + 1)
	}
	a, b := ks[:40], ks[24:]
	blocks, rows := blocksFor(4, a, b), ownedRows(ks, a, b)
	batch := func() {
		ws, err := m.PrepareOwnedInto(ks, blocks, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CompleteBatch(&ws); err != nil {
			t.Fatal(err)
		}
	}
	batch()
	if allocs := testing.AllocsPerRun(50, batch); allocs != 0 {
		t.Fatalf("a warm PrepareOwnedInto + CompleteBatch allocates %.1f times", allocs)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestMissCycleAllocatesNothing pins the steady cold state of the in-process
// batch: a prepare, the fused pair push and CompleteBatch over a cache far
// smaller than the working set, so every batch loads rows from the SSD-PS,
// evicts, and hands a full dump buffer to the background write. The write is
// waited out inside the measured cycle, so its allocations count too. Over
// 100 warm batches the cycle allocates less than once per batch.
func TestMissCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	clock := hw.NewCounter()
	m, err := New(Config{
		Dim:           4,
		Topology:      cluster.Topology{Nodes: 1, GPUsPerNode: 1},
		Store:         newStore(t, 4, clock),
		Clock:         clock,
		LRUEntries:    24,
		LFUEntries:    24,
		DumpBatchSize: 32,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	m.writeHook = func(io func()) {
		writes++
		io()
	}
	rng := rand.New(rand.NewSource(3))
	type batch struct {
		ks     []keys.Key
		blocks []*ps.ValueBlock
		rows   [][]int32
		a, b   *ps.ValueBlock
		sa, sb []int32
		ws     WorkingSet
	}
	batches := make([]*batch, 100)
	for i := range batches {
		ks := make([]keys.Key, 64)
		for j := range ks {
			ks[j] = keys.Key(1 + rng.Intn(400))
		}
		ks = keys.Dedup(ks)
		half := ks[:len(ks)/2]
		bt := &batch{ks: ks, blocks: blocksFor(4, ks, half), rows: ownedRows(ks, ks, half)}
		bt.a = weightDeltas(4, ks, func(keys.Key) float32 { return 0.25 }, 1)
		bt.b = weightDeltas(4, half, func(keys.Key) float32 { return 0.5 }, 1)
		bt.sa, bt.sb = make([]int32, len(ks)), make([]int32, len(ks))
		for x := range ks {
			bt.sa[x], bt.sb[x] = int32(x), -1
			if x < len(half) {
				bt.sb[x] = int32(x)
			}
		}
		batches[i] = bt
	}
	cycle := func() {
		for _, bt := range batches {
			var err error
			if bt.ws, err = m.PrepareOwnedInto(bt.ks, bt.blocks, bt.rows); err != nil {
				t.Fatal(err)
			}
			if _, err := m.PushBlockPair(&bt.ws, bt.a, bt.b, bt.ks, bt.sa, bt.sb); err != nil {
				t.Fatal(err)
			}
			if err := m.CompleteBatch(&bt.ws); err != nil {
				t.Fatal(err)
			}
			m.mu.Lock()
			if err := m.waitWrite(); err != nil {
				t.Fatal(err)
			}
			m.mu.Unlock()
		}
	}
	cycle() // every key reaches the SSD-PS, and every table its size
	cycle()
	before, loads := writes, m.Stats().SSDLoads
	allocs := testing.AllocsPerRun(1, cycle)
	if writes == before || m.Stats().SSDLoads == loads {
		t.Fatalf("the measured cycles made %d background writes and %d SSD-PS loads: not the cold path",
			writes-before, m.Stats().SSDLoads-loads)
	}
	if allocs >= float64(len(batches)) {
		t.Fatalf("%d warm cold batches allocate %.0f times", len(batches), allocs)
	}
	t.Logf("%d warm cold batches: %.0f allocations, %d writes", len(batches), allocs, writes-before)
}

// TestWorkingSetOutlivesFlush flushes the cache, pins included, while a
// batch's working set is outstanding, as a checkpoint taken under the async
// push does, and lets the next batch pin the same keys before the first one
// pushes: the first batch's Refs no longer hold, so its push and
// CompleteBatch fall back to the keyed path, and every delta lands on the
// key's current row.
func TestWorkingSetOutlivesFlush(t *testing.T) {
	m := singleNode(t, 4, 4)
	ks := []keys.Key{2, 3, 5, 7, 11, 13}
	w := map[keys.Key]float32{}
	first, blk := prepare(t, m, ks)
	for i, k := range ks {
		w[k] = blk.WeightsRow(i)[0]
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	second, _ := prepare(t, m, ks[2:])
	if _, err := m.PushBatch(first, weightDeltas(4, ks, func(keys.Key) float32 { return 1 }, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PushBatch(second, weightDeltas(4, ks[2:], func(keys.Key) float32 { return 2 }, 1)); err != nil {
		t.Fatal(err)
	}
	for _, ws := range []*WorkingSet{first, second} {
		if err := m.CompleteBatch(ws); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.PinnedKeys(); n != 0 {
		t.Fatalf("%d keys still pinned after both batches completed", n)
	}
	got := lookupAll(t, m, ks)
	for i, k := range ks {
		want := w[k] + 1
		if i >= 2 {
			want += 2
		}
		if v := got[k]; v == nil || v.Weights[0] != want {
			t.Fatalf("key %d: weight %v, want %v", k, v, want)
		}
	}
}
