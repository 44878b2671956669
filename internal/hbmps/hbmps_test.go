package hbmps

import (
	"strings"
	"sync"
	"testing"

	"hps/internal/embedding"
	"hps/internal/gpu"
	"hps/internal/hw"
	"hps/internal/interconnect"
	"hps/internal/keys"
	"hps/internal/optimizer"
	"hps/internal/ps"
	"hps/internal/simtime"
)

// pull pulls ks for a worker on gpuID into a fresh block (row i is ks[i]).
func pull(h *HBMPS, gpuID int, ks []keys.Key) (*ps.ValueBlock, error) {
	blk := ps.NewValueBlock(h.cfg.Dim)
	return blk, h.PullInto(ps.PullRequest{Shard: gpuID, Keys: ks}, blk)
}

// collect returns the deltas CollectBlock reports, keyed by parameter.
func collect(h *HBMPS) map[keys.Key]*embedding.Value {
	blk := ps.NewValueBlock(h.cfg.Dim)
	h.CollectBlock(blk)
	out := make(map[keys.Key]*embedding.Value, blk.Len())
	for i, k := range blk.Keys {
		out[k] = blk.Value(i)
	}
	return out
}

func testConfig(numGPUs int) Config {
	profile := hw.DefaultGPUNode()
	clock := simtime.NewClock()
	return Config{
		NodeID:     0,
		NumGPUs:    numGPUs,
		Dim:        4,
		GPUProfile: profile.GPU,
		NVLink:     profile.NVLink,
		Fabric:     interconnect.NewFabric(profile, clock),
		Clock:      clock,
	}
}

// workingSet is a loadable block of keys 0..n-1, key i with weight 0 = i.
func workingSet(n int) *ps.ValueBlock {
	blk := ps.NewValueBlock(4)
	for i := 0; i < n; i++ {
		blk.AppendRow(keys.Key(i), []float32{float32(i), 0, 0, 0}, make([]float32, 4), 0)
	}
	return blk
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{NumGPUs: 0, Dim: 4}); err == nil {
		t.Fatal("zero GPUs should fail")
	}
	if _, err := New(Config{NumGPUs: 2, Dim: 0}); err == nil {
		t.Fatal("zero dim should fail")
	}
	h, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumGPUs() != 4 || len(h.Devices()) != 4 {
		t.Fatal("device count wrong")
	}
}

func TestLoadPartitionsAcrossGPUs(t *testing.T) {
	h, _ := New(testConfig(4))
	ws := workingSet(200)
	if err := h.LoadBlock(ws); err != nil {
		t.Fatal(err)
	}
	if !h.Loaded() {
		t.Fatal("Loaded should be true")
	}
	if h.WorkingSetSize() != 200 {
		t.Fatalf("working set size = %d", h.WorkingSetSize())
	}
	// Non-overlapping partition: each GPU holds exactly the keys the hash
	// partition policy gives it, a strict subset, and the union covers
	// everything.
	countWithParams := 0
	for g := range h.Devices() {
		own := 0
		for _, k := range ws.Keys {
			if h.gpuOf(k) == g {
				own++
			}
		}
		n := h.residentOn(g)
		if n != own {
			t.Fatalf("gpu %d holds %d keys, owns %d", g, n, own)
		}
		if n > 0 {
			countWithParams++
		}
		if n == 200 {
			t.Fatal("one GPU holds everything; partitioning broken")
		}
	}
	if countWithParams < 2 {
		t.Fatal("parameters should spread across GPUs")
	}
	// Double load must fail until Release.
	if err := h.LoadBlock(ws); err == nil {
		t.Fatal("second load without release should fail")
	}
	h.Release()
	if h.Loaded() || h.WorkingSetSize() != 0 {
		t.Fatal("release failed")
	}
	if err := h.LoadBlock(ws); err != nil {
		t.Fatal(err)
	}
	if h.Stats().BatchesLoaded != 2 || h.Stats().ParamsLoaded != 400 {
		t.Fatalf("stats = %+v", h.Stats())
	}
}

func TestLoadCopiesValues(t *testing.T) {
	h, _ := New(testConfig(2))
	ws := workingSet(10)
	if err := h.LoadBlock(ws); err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's block must not affect the GPU copies.
	ws.WeightsRow(0)[0] = 999
	got, err := pull(h, 0, []keys.Key{0})
	if err != nil {
		t.Fatal(err)
	}
	if got.WeightsRow(0)[0] == 999 {
		t.Fatal("LoadBlock must copy values")
	}
}

func TestLoadFailsWhenHBMTooSmall(t *testing.T) {
	cfg := testConfig(2)
	cfg.GPUProfile.HBMBytes = 64 // absurdly small
	h, _ := New(cfg)
	err := h.LoadBlock(workingSet(1000))
	if err == nil {
		t.Fatal("expected out-of-HBM failure")
	}
	if !strings.Contains(err.Error(), "cannot hold") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Every partition's reservation must be rolled back.
	for _, dev := range h.Devices() {
		if dev.HBMUsed() != 0 {
			t.Fatalf("failed load must roll back allocations: %v holds %d bytes", dev, dev.HBMUsed())
		}
	}
	if h.Loaded() || h.WorkingSetSize() != 0 {
		t.Fatal("failed load must leave no working set")
	}
}

func TestPullLocalAndRemote(t *testing.T) {
	h, _ := New(testConfig(4))
	if err := h.LoadBlock(workingSet(100)); err != nil {
		t.Fatal(err)
	}
	var ks []keys.Key
	for i := 0; i < 100; i++ {
		ks = append(ks, keys.Key(i))
	}
	got, err := pull(h, 0, ks)
	if err != nil {
		t.Fatal(err)
	}
	if got.PresentCount() != 100 {
		t.Fatalf("pulled %d values", got.PresentCount())
	}
	for i := 0; i < 100; i++ {
		if got.WeightsRow(i)[0] != float32(i) {
			t.Fatalf("value %d corrupted", i)
		}
	}
	st := h.Stats()
	if st.LocalPulls == 0 || st.RemotePulls == 0 {
		t.Fatalf("expected both local and remote pulls, got %+v", st)
	}
	if st.PullTime <= 0 {
		t.Fatal("pull time should be accounted")
	}
	// Invalid GPU id and missing key.
	if _, err := pull(h, 99, ks); err == nil {
		t.Fatal("invalid gpu id should fail")
	}
	if _, err := pull(h, 0, []keys.Key{10_000}); err == nil {
		t.Fatal("missing key should fail")
	}
}

func TestPullReturnsCopies(t *testing.T) {
	h, _ := New(testConfig(2))
	h.LoadBlock(workingSet(4))
	got, _ := pull(h, 0, []keys.Key{1})
	got.WeightsRow(0)[0] = 777
	again, _ := pull(h, 0, []keys.Key{1})
	if again.WeightsRow(0)[0] == 777 {
		t.Fatal("PullInto must return copies")
	}
}

// train is one GPU worker's mini-batch as the trainer runs it: pull ks on
// gpuID, apply opt to every pulled row with gradient grad, count the row's
// use, and commit the block.
func train(h *HBMPS, gpuID int, ks []keys.Key, opt optimizer.Sparse, grad []float32) error {
	work, err := pull(h, gpuID, ks)
	if err != nil {
		return err
	}
	orig := ps.NewValueBlock(h.cfg.Dim)
	orig.CopyFrom(work)
	for i := range ks {
		opt.ApplySparse(work.WeightsRow(i), work.G2Row(i), grad)
		work.Freq[i]++
	}
	return h.CommitBlock(gpuID, orig, work)
}

// TestPushAppliesOptimizer: a worker's commit — the HBM-PS push of
// Algorithm 1 line 14 — stores the optimizer's step and the use count, is
// accounted as push time, and refuses a GPU the node does not have.
func TestPushAppliesOptimizer(t *testing.T) {
	h, _ := New(testConfig(2))
	h.LoadBlock(workingSet(10))
	before, _ := pull(h, 0, []keys.Key{3})
	if err := train(h, 0, []keys.Key{3}, optimizer.SGD{LR: 0.5}, []float32{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	after, _ := pull(h, 0, []keys.Key{3})
	want := before.WeightsRow(0)[0] - 0.5
	if after.WeightsRow(0)[0] != want {
		t.Fatalf("push result = %v, want %v", after.WeightsRow(0)[0], want)
	}
	if after.Freq[0] != before.Freq[0]+1 {
		t.Fatal("push should increment freq")
	}
	if h.Stats().PushTime <= 0 {
		t.Fatal("push time should be accounted")
	}
	if err := h.CommitBlock(99, before, after); err == nil {
		t.Fatal("invalid gpu id should fail")
	}
}

// TestPushConcurrentWorkers: workers on every GPU commit the same keys
// concurrently, and no update is lost.
func TestPushConcurrentWorkers(t *testing.T) {
	h, _ := New(testConfig(4))
	h.LoadBlock(workingSet(50))
	var wg sync.WaitGroup
	const workers = 8
	const steps = 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(gpuID int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				if err := train(h, gpuID%4, []keys.Key{keys.Key(i % 50)}, optimizer.SGD{LR: 1}, []float32{1, 0, 0, 0}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Total weight change across all keys must equal -(workers*steps) for SGD
	// with lr=1 and gradient 1 (no lost updates).
	updates := collect(h)
	var total float32
	for _, d := range updates {
		total += d.Weights[0]
	}
	if total != -float32(workers*steps) {
		t.Fatalf("lost updates: total delta = %v, want %v", total, -float32(workers*steps))
	}
}

func TestCollectUpdatesOnlyChanged(t *testing.T) {
	h, _ := New(testConfig(2))
	h.LoadBlock(workingSet(20))
	if err := train(h, 0, []keys.Key{5}, optimizer.SGD{LR: 1}, []float32{2, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	updates := collect(h)
	if len(updates) != 1 {
		t.Fatalf("expected 1 changed parameter, got %d", len(updates))
	}
	d, ok := updates[5]
	if !ok {
		t.Fatal("missing delta for key 5")
	}
	if d.Weights[0] != -2 {
		t.Fatalf("delta = %v, want -2", d.Weights[0])
	}
	if d.Freq != 1 {
		t.Fatalf("freq delta = %d", d.Freq)
	}
}

func TestApplyRemoteDeltas(t *testing.T) {
	h, _ := New(testConfig(2))
	h.LoadBlock(workingSet(10))
	// Deltas from other nodes arrive unsharded: no GPU's fabric is charged.
	delta := ps.NewValueBlock(4)
	w := []float32{3, 0, 0, 0}
	delta.AppendRow(2, w, make([]float32, 4), 2)
	delta.AppendRow(999, w, make([]float32, 4), 2) // not in the working set: ignored
	if err := h.PushBlock(ps.PushBlockRequest{Shard: ps.NoShard, Block: delta}); err != nil {
		t.Fatal(err)
	}
	got, _ := pull(h, 0, []keys.Key{2})
	if got.WeightsRow(0)[0] != 2+3 {
		t.Fatalf("remote delta not applied: %v", got.WeightsRow(0)[0])
	}
	// The applied delta becomes part of this node's observed update too
	// (matching what a real all-reduce leaves in HBM).
	updates := collect(h)
	if updates[2] == nil || updates[2].Weights[0] != 3 {
		t.Fatal("remote delta should appear in collected updates")
	}
}

func TestHBMChargesClock(t *testing.T) {
	cfg := testConfig(2)
	h, _ := New(cfg)
	h.LoadBlock(workingSet(100))
	if cfg.Clock.Total(simtime.ResourcePCIe) <= 0 {
		t.Fatal("loading should charge PCIe time")
	}
	if cfg.Clock.Total(simtime.ResourceHBM) <= 0 {
		t.Fatal("loading should charge HBM time")
	}
	var ks []keys.Key
	for i := 0; i < 100; i++ {
		ks = append(ks, keys.Key(i))
	}
	pull(h, 0, ks)
	if cfg.Clock.Total(simtime.ResourceNVLink) <= 0 {
		t.Fatal("remote pulls should charge NVLink time")
	}
}

func TestDevicesShareNodeID(t *testing.T) {
	cfg := testConfig(3)
	cfg.NodeID = 7
	h, _ := New(cfg)
	for i, d := range h.Devices() {
		if d.NodeID != 7 || d.ID != i {
			t.Fatalf("device %d identity wrong: %+v", i, d)
		}
	}
}

func TestBytesPerEntryConsistency(t *testing.T) {
	// Each GPU reserves exactly its partition's slab entries while a working
	// set is loaded (no silent divergence from gpu.BytesPerEntry), and returns
	// them at release.
	h, _ := New(testConfig(2))
	if err := h.LoadBlock(workingSet(64)); err != nil {
		t.Fatal(err)
	}
	for g, dev := range h.Devices() {
		want := int64(h.residentOn(g)) * gpu.BytesPerEntry(4)
		if dev.HBMUsed() != want {
			t.Fatalf("gpu %d: HBM used %d != partition reservation %d", g, dev.HBMUsed(), want)
		}
	}
	h.Release()
	for g, dev := range h.Devices() {
		if dev.HBMUsed() != 0 {
			t.Fatalf("gpu %d: HBM used %d after release", g, dev.HBMUsed())
		}
	}
}

func TestTierInterface(t *testing.T) {
	h, _ := New(testConfig(2))
	h.LoadBlock(workingSet(20))
	var tier ps.Tier = h
	if tier.Name() != "hbm-ps" {
		t.Fatalf("name = %q", tier.Name())
	}

	// Tier push merges value deltas shard-aware.
	delta := ps.NewValueBlock(4)
	delta.AppendRow(4, []float32{5, 0, 0, 0}, make([]float32, 4), 0)
	if err := tier.PushBlock(ps.PushBlockRequest{Shard: 0, Block: delta}); err != nil {
		t.Fatal(err)
	}
	got, _ := pull(h, 0, []keys.Key{4})
	if got.WeightsRow(0)[0] != 4+5 {
		t.Fatalf("tier push not applied: %v", got.WeightsRow(0)[0])
	}
	if err := tier.PushBlock(ps.PushBlockRequest{Shard: 42, Block: ps.NewValueBlock(4)}); err == nil {
		t.Fatal("invalid shard should fail")
	}

	st := tier.TierStats()
	if st.Pulls == 0 || st.Pushes == 0 || st.KeysPulled == 0 || st.KeysPushed == 0 {
		t.Fatalf("uniform stats not recorded: %+v", st)
	}
}

func TestEvictPartialAndFull(t *testing.T) {
	h, _ := New(testConfig(2))
	h.LoadBlock(workingSet(10))

	// Partial eviction demotes individual keys; a second eviction of the same
	// keys finds nothing.
	n, err := h.Evict([]keys.Key{1, 3, 999})
	if err != nil || n != 2 {
		t.Fatalf("evict = (%d, %v), want (2, nil)", n, err)
	}
	if h.WorkingSetSize() != 8 {
		t.Fatalf("working set size = %d after partial evict", h.WorkingSetSize())
	}
	if _, err := pull(h, 0, []keys.Key{1}); err == nil {
		t.Fatal("evicted key should no longer be resident")
	}
	if n, _ := h.Evict([]keys.Key{1, 3}); n != 0 {
		t.Fatalf("re-evict = %d, want 0", n)
	}

	// Full eviction releases the working set.
	n, err = h.Evict(nil)
	if err != nil || n != 8 {
		t.Fatalf("full evict = (%d, %v), want (8, nil)", n, err)
	}
	if h.Loaded() || h.WorkingSetSize() != 0 {
		t.Fatal("full evict must release the working set")
	}
	if st := h.TierStats(); st.Evictions != 3 || st.KeysEvicted != 10 {
		t.Fatalf("evict stats = %+v", st)
	}
}
