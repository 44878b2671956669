package serving_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/memps"
	"hps/internal/nn"
	"hps/internal/ps"
	"hps/internal/serving"
	"hps/internal/ssdps"
)

// fakeDim is the embedding dimension of the in-memory fakes below.
const fakeDim = 4

// lookupInto fills dst with vals' rows for ks; keys vals lacks stay absent.
func lookupInto(vals map[keys.Key]*embedding.Value, ks []keys.Key, dst *ps.ValueBlock) {
	dst.Reset(fakeDim, ks)
	for i, k := range ks {
		if v, ok := vals[k]; ok {
			dst.Set(i, v)
		}
	}
}

// mapLocal is a local cluster.LookupHandler over a fixed in-memory table.
type mapLocal map[keys.Key]*embedding.Value

func (m mapLocal) HandleLookupBlock(ks []keys.Key, dst *ps.ValueBlock) error {
	lookupInto(m, ks, dst)
	return nil
}

// flakyPeer is a PeerReader that can be switched into a failing state, the
// in-test stand-in for a crashed shard.
type flakyPeer struct {
	vals map[keys.Key]*embedding.Value
	down bool
}

func (p *flakyPeer) Lookup(nodeID int, ks []keys.Key, dst *ps.ValueBlock) (int64, error) {
	if p.down {
		return 0, errors.New("peer down")
	}
	lookupInto(p.vals, ks, dst)
	return 0, nil
}

// TestDegradedServingSurvivesPeerOutage is the availability half of the
// crash-restart story: when a peer shard dies, this shard keeps answering
// Predict from the stale hot-key replica rows it already holds — the same
// score it would have served one push epoch ago — instead of failing the
// request, and counts the outage in ServingStats.Degraded.
func TestDegradedServingSurvivesPeerOutage(t *testing.T) {
	const dim = 4
	topo := cluster.Topology{Nodes: 2, GPUsPerNode: 1}

	// One key owned by each node.
	var localKey, remoteKey keys.Key
	haveLocal, haveRemote := false, false
	for k := keys.Key(1); !haveLocal || !haveRemote; k++ {
		switch topo.NodeOf(k) {
		case 0:
			if !haveLocal {
				localKey, haveLocal = k, true
			}
		case 1:
			if !haveRemote {
				remoteKey, haveRemote = k, true
			}
		}
	}
	val := func(fill float32) *embedding.Value {
		v := embedding.NewValue(dim)
		for i := range v.Weights {
			v.Weights[i] = fill
		}
		return v
	}
	peer := &flakyPeer{vals: map[keys.Key]*embedding.Value{remoteKey: val(0.5)}}

	srv, err := serving.New(serving.Config{
		NodeID:   0,
		Topology: topo,
		Dim:      dim,
		Hidden:   []int{8},
		Local:    mapLocal{localKey: val(0.25)},
		Peers:    peer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dense := nn.New(nn.Config{InputDim: dim, Hidden: []int{8}, Seed: 42})
	if err := srv.HandleServeConfig(cluster.ServeConfig{Dense: dense.FlattenParams(nil), Epoch: 1}); err != nil {
		t.Fatal(err)
	}

	req := cluster.PredictRequest{Keys: []keys.Key{localKey, remoteKey}, Counts: []uint32{2}}
	before, err := srv.HandlePredict(req)
	if err != nil {
		t.Fatal(err)
	}

	// The peer dies and a push epoch passes, staling the replica row it left
	// behind. Serving must answer from that stale row anyway.
	peer.down = true
	srv.BumpEpoch()
	during, err := srv.HandlePredict(req)
	if err != nil {
		t.Fatalf("predict during peer outage: %v", err)
	}
	if math.IsNaN(float64(during[0])) || during[0] <= 0 || during[0] >= 1 {
		t.Fatalf("degraded score %v is not a probability", during[0])
	}
	// Nothing moved but the epoch: the stale row holds the same weights, so
	// the degraded score is exactly the pre-outage score.
	if during[0] != before[0] {
		t.Fatalf("degraded score %v != pre-outage score %v (stale replica row not used)", during[0], before[0])
	}
	st := srv.ServingStats()
	if st.Degraded == 0 {
		t.Fatal("degraded peer fetch was not counted in ServingStats.Degraded")
	}

	// A remote key with no replica row scores as untrained while the peer is
	// down — the request still succeeds.
	var coldKey keys.Key
	for k := remoteKey + 1; ; k++ {
		if topo.NodeOf(k) == 1 {
			coldKey = k
			break
		}
	}
	cold, err := srv.HandlePredict(cluster.PredictRequest{Keys: []keys.Key{coldKey}, Counts: []uint32{1}})
	if err != nil {
		t.Fatalf("predict for uncached key during outage: %v", err)
	}
	if math.IsNaN(float64(cold[0])) {
		t.Fatal("uncached degraded score is NaN")
	}

	// The peer comes back: fetches succeed again and refresh the cache.
	peer.down = false
	peer.vals[remoteKey] = val(0.75)
	after, err := srv.HandlePredict(req)
	if err != nil {
		t.Fatal(err)
	}
	if after[0] == during[0] {
		t.Fatal("recovered fetch did not refresh the stale replica row")
	}
}

// routedPeer is a PeerReader over several per-node tables with per-node
// failure injection — the in-test stand-in for a partially crashed cluster.
type routedPeer struct {
	vals map[int]map[keys.Key]*embedding.Value
	down map[int]bool
}

func (p *routedPeer) Lookup(nodeID int, ks []keys.Key, dst *ps.ValueBlock) (int64, error) {
	if p.down[nodeID] {
		return 0, fmt.Errorf("shard %d down", nodeID)
	}
	lookupInto(p.vals[nodeID], ks, dst)
	return 0, nil
}

// TestPredictFailsOverToBackup is the replicated upgrade of degraded serving:
// with R=2, a predict whose keys' primary is down re-reads them from the
// backup shard — fresh rows, counted as ServingStats.FailedOver, with the
// Degraded (stale-answer) counter untouched.
func TestPredictFailsOverToBackup(t *testing.T) {
	const dim = 4
	ring := cluster.NewRing([]int{0, 1, 2})
	ms := cluster.NewMembership(ring)
	topo := cluster.Topology{Nodes: 3, GPUsPerNode: 1, Members: ms, Replicas: 2}

	// A key primaried on shard 1 with its backup on shard 2, so shard 0 holds
	// no replica and must go over the network for it.
	var k keys.Key
	for c := keys.Key(1); ; c++ {
		if ring.Owner(c) == 1 && ring.Backup(c) == 2 {
			k = c
			break
		}
	}
	v := embedding.NewValue(dim)
	for i := range v.Weights {
		v.Weights[i] = 0.4
	}
	peers := &routedPeer{
		vals: map[int]map[keys.Key]*embedding.Value{2: {k: v}},
		down: map[int]bool{1: true}, // the primary is dead; the backup is fine
	}
	srv, err := serving.New(serving.Config{
		NodeID:   0,
		Topology: topo,
		Dim:      dim,
		Hidden:   []int{8},
		Local:    mapLocal{},
		Peers:    peers,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dense := nn.New(nn.Config{InputDim: dim, Hidden: []int{8}, Seed: 42})
	if err := srv.HandleServeConfig(cluster.ServeConfig{Dense: dense.FlattenParams(nil), Epoch: 1}); err != nil {
		t.Fatal(err)
	}

	req := cluster.PredictRequest{Keys: []keys.Key{k}, Counts: []uint32{1}}
	got, err := srv.HandlePredict(req)
	if err != nil {
		t.Fatalf("predict with primary down: %v", err)
	}
	// The score must be the backup's fresh row, not an untrained zero-input
	// score: compare against the same dense tower over the real embedding.
	peers.down[1] = false
	want, err := srv.HandlePredict(req) // cache now holds the failover row anyway
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Fatalf("failover score %v != healthy score %v", got[0], want[0])
	}
	st := srv.ServingStats()
	if st.FailedOver == 0 {
		t.Fatal("backup failover was not counted in ServingStats.FailedOver")
	}
	if st.Degraded != 0 {
		t.Fatalf("failover was miscounted as %d degraded (stale) answers", st.Degraded)
	}

	// Both replicas down: the failover fails too and the request degrades to
	// the cached row.
	peers.down[1], peers.down[2] = true, true
	srv.BumpEpoch() // stale the cached row so gather must miss and re-fetch
	during, err := srv.HandlePredict(req)
	if err != nil {
		t.Fatalf("predict with both replicas down: %v", err)
	}
	if during[0] != want[0] {
		t.Fatalf("degraded score %v != stale-cached score %v", during[0], want[0])
	}
	if st := srv.ServingStats(); st.Degraded == 0 {
		t.Fatal("double failure was not counted in ServingStats.Degraded")
	}
}

// restoredShard reopens the SSD-PS a previous incarnation of shard node
// flushed to dir, the way `hps serve -restore` does, and arms a serving tier
// over it whose peers are all down.
func restoredShard(t *testing.T, dir string, node int, topo cluster.Topology) (*memps.MemPS, *serving.Server) {
	t.Helper()
	dev, err := blockio.NewDevice(dir, hw.DefaultGPUNode().SSD, hw.NewCounter())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	store, err := ssdps.Open(dev, ssdps.Config{Dim: fakeDim, ParamsPerFile: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Recover(); err != nil {
		t.Fatal(err)
	}
	mem, err := memps.New(memps.Config{NodeID: node, Dim: fakeDim, Topology: topo, Transport: cluster.NoRoute{},
		Store: store, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serving.New(serving.Config{NodeID: node, Topology: topo, Dim: fakeDim, Hidden: []int{8},
		Local: mem, Peers: &flakyPeer{down: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	dense := nn.New(nn.Config{InputDim: fakeDim, Hidden: []int{8}, Seed: 42})
	if err := srv.HandleServeConfig(cluster.ServeConfig{Dense: dense.FlattenParams(nil), Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	return mem, srv
}

// TestRestoredShardServesItsRowsLocally pins why a restarted shard has
// nothing to warm its replica cache with: every row it recovers is a key it
// holds, and the serving tier reads held keys from the MEM-PS, never from the
// replica cache. Predicting all of them takes zero replica-cache lookups.
func TestRestoredShardServesItsRowsLocally(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, GPUsPerNode: 1}
	dir := t.TempDir()
	var held []keys.Key
	for k := keys.Key(1); len(held) < 40; k++ {
		if topo.HoldsKey(k, 0) {
			held = append(held, k)
		}
	}
	first, _ := restoredShard(t, dir, 0, topo)
	blk := ps.NewValueBlock(fakeDim)
	if err := first.HandlePullBlock(held, blk); err != nil { // first references create the rows
		t.Fatal(err)
	}
	if err := first.Flush(); err != nil {
		t.Fatal(err)
	}

	if err := first.Store().Device().Close(); err != nil {
		t.Fatal(err)
	}

	mem, srv := restoredShard(t, dir, 0, topo)
	if got := mem.Store().Len(); got != len(held) {
		t.Fatalf("restored %d of %d rows", got, len(held))
	}
	if _, err := srv.HandlePredict(cluster.PredictRequest{Keys: held, Counts: []uint32{uint32(len(held))}}); err != nil {
		t.Fatal(err)
	}
	st := srv.ServingStats()
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.LocalKeys != int64(len(held)) {
		t.Fatalf("restored shard: %d replica-cache hits, %d misses, %d local keys; want 0, 0, %d",
			st.CacheHits, st.CacheMisses, st.LocalKeys, len(held))
	}
}
