// Package hbmps implements the HBM parameter server (Section 4): the top tier
// of the hierarchy, which keeps the working parameters of the current batch
// in a multi-GPU distributed hash table and lets GPU worker threads pull,
// train on, and push updates to them without any CPU round trips.
//
// Within a node, parameters are partitioned across the GPUs by a hash
// partition policy; a worker that needs a parameter held by another GPU
// fetches it over NVLink (Algorithm 2's partition-and-send pattern). Across
// nodes, updates are synchronized by the hierarchical all-reduce of
// Appendix C.3, which the core trainer coordinates; this package exposes the
// per-node pieces (delta collection with CollectBlock, delta application with
// PushBlock).
//
// The hot path is batched: workers pull a whole mini-batch's unique keys at
// once with PullInto, train against the flat block, and write the result back
// with one CommitBlock — the per-example PushGrads remains as the reference
// path. Working-set storage is slab-backed and recycled across batches (value
// arena + reusable GPU hash tables), so steady-state loads allocate almost
// nothing.
package hbmps

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"hps/internal/embedding"
	"hps/internal/gpu"
	"hps/internal/hw"
	"hps/internal/interconnect"
	"hps/internal/keys"
	"hps/internal/optimizer"
	"hps/internal/ps"
	"hps/internal/simtime"
	"hps/internal/tensor"
)

// Config configures the HBM-PS of a single node.
type Config struct {
	// NodeID identifies the hosting node.
	NodeID int
	// NumGPUs is the number of GPUs in the node.
	NumGPUs int
	// Dim is the embedding dimension of sparse parameters.
	Dim int
	// GPUProfile describes each GPU.
	GPUProfile hw.GPU
	// NVLink describes the intra-node GPU interconnect; used for per-component
	// statistics. When zero it defaults to the reference GPU node's NVLink.
	NVLink hw.Link
	// Fabric charges NVLink/PCIe time; nil disables accounting.
	Fabric *interconnect.Fabric
	// Clock is the node's simulated-time clock; nil disables accounting.
	Clock *simtime.Clock
}

// Stats summarizes HBM-PS activity (the breakdown of Fig 4a).
type Stats struct {
	// BatchesLoaded counts LoadBlock calls.
	BatchesLoaded int64
	// ParamsLoaded counts parameters inserted across all batches.
	ParamsLoaded int64
	// PullTime is the cumulative modelled time of HBM-PS pulls.
	PullTime time.Duration
	// PushTime is the cumulative modelled time of HBM-PS pushes.
	PushTime time.Duration
	// LoadTime is the cumulative modelled time of CPU->GPU working-set loads.
	LoadTime time.Duration
	// RemotePulls / LocalPulls count parameter fetches by location.
	LocalPulls, RemotePulls int64
}

// valueArena is the slab storage backing one batch's working-set values: the
// table entries are embedding.Values whose Weights/G2Sum slices point into
// two contiguous float slabs. The arena is reused across batches, so loading
// a working set allocates nothing once the slabs have grown to the steady
// batch size.
type valueArena struct {
	weights []float32
	g2      []float32
	vals    []embedding.Value
}

func (a *valueArena) reset(n, dim int) {
	flat := n * dim
	if cap(a.weights) < flat {
		a.weights = make([]float32, flat)
		a.g2 = make([]float32, flat)
	} else {
		a.weights = a.weights[:flat]
		a.g2 = a.g2[:flat]
	}
	if cap(a.vals) < n {
		a.vals = make([]embedding.Value, n)
	} else {
		a.vals = a.vals[:n]
	}
}

// value binds arena slot i to a copy of (w, g2, freq) and returns it.
func (a *valueArena) value(i, dim int, w, g2 []float32, freq uint32) *embedding.Value {
	v := &a.vals[i]
	v.Weights = a.weights[i*dim : (i+1)*dim : (i+1)*dim]
	v.G2Sum = a.g2[i*dim : (i+1)*dim : (i+1)*dim]
	copy(v.Weights, w)
	copy(v.G2Sum, g2)
	v.Freq = freq
	return v
}

// HBMPS is the HBM parameter server of one node. It is safe for concurrent
// use by the node's GPU worker goroutines. It implements ps.Tier: PullInto
// and PushBlock are sharded by GPU id, and Evict demotes keys out of HBM
// (their authoritative copies live in the MEM-PS below).
type HBMPS struct {
	cfg     Config
	devices []*gpu.Device
	rec     ps.Recorder

	mu     sync.Mutex
	loaded bool
	// arena backs the values resident in the GPU tables; origSet snapshots
	// the loaded values (flat, same row order as arena slots) for delta
	// computation at batch completion. Both are recycled across batches.
	arena   valueArena
	origSet ps.ValueBlock
	parts   [][]int32
	stats   Stats

	// Staged GPU partition computed by StagePartition while the pull stage is
	// still fetching values. Guarded by its own lock, not h.mu: with pipelining,
	// the pull stage of batch j+1 stages its partition while the train stage of
	// batch j still holds h.mu inside LoadBlock.
	stageMu     sync.Mutex
	stagedKeys  []keys.Key
	stagedParts [][]int32
}

var _ ps.Tier = (*HBMPS)(nil)

// New constructs the HBM-PS for one node, creating its simulated GPU devices.
func New(cfg Config) (*HBMPS, error) {
	if cfg.NumGPUs < 1 {
		return nil, fmt.Errorf("hbmps: need at least one GPU, have %d", cfg.NumGPUs)
	}
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("hbmps: invalid embedding dim %d", cfg.Dim)
	}
	if cfg.NVLink.BandwidthBytesPerSec == 0 {
		cfg.NVLink = hw.DefaultGPUNode().NVLink
	}
	h := &HBMPS{cfg: cfg}
	for i := 0; i < cfg.NumGPUs; i++ {
		h.devices = append(h.devices, gpu.NewDevice(cfg.NodeID, i, cfg.GPUProfile, cfg.Clock))
	}
	return h, nil
}

// NumGPUs returns the number of GPUs managed by this HBM-PS.
func (h *HBMPS) NumGPUs() int { return len(h.devices) }

// Devices returns the simulated GPU devices (for HBM usage inspection).
func (h *HBMPS) Devices() []*gpu.Device { return h.devices }

// gpuOf returns the GPU that owns key k under the hash partition policy of
// Section 4.1 / Appendix C.1.
func (h *HBMPS) gpuOf(k keys.Key) int { return k.HashShard(len(h.devices)) }

// LoadBlock partitions the working parameters — the block the trainer feeds
// straight from the MEM-PS pull, every row present — across the node's GPUs
// in a non-overlapping fashion and inserts them into each GPU's hash table
// (Algorithm 1 lines 6-10). The values are copied; the caller keeps
// ownership of the block. Loading charges PCIe transfer and HBM insertion
// time, and fails if any GPU's HBM cannot hold its partition.
func (h *HBMPS) LoadBlock(blk *ps.ValueBlock) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.loaded {
		return errors.New("hbmps: working set already loaded; call Release first")
	}
	dim := h.cfg.Dim
	if blk.Dim != dim {
		return fmt.Errorf("hbmps: working-set block has dim %d, want %d", blk.Dim, dim)
	}
	for i := range blk.Keys {
		if !blk.Present[i] {
			return fmt.Errorf("hbmps: working-set block row %d (key %d) is absent", i, blk.Keys[i])
		}
	}
	ks := blk.Keys

	// Partition key indices across GPUs (buffers recycled across batches). If
	// StagePartition already bucketed exactly this key sequence during the pull
	// stage, adopt its buckets instead of re-partitioning.
	if !h.adoptStagedPartition(ks) {
		if len(h.parts) != len(h.devices) {
			h.parts = make([][]int32, len(h.devices))
		}
		for g := range h.parts {
			h.parts[g] = h.parts[g][:0]
		}
		for i, k := range ks {
			g := h.gpuOf(k)
			h.parts[g] = append(h.parts[g], int32(i))
		}
	}

	loadStart := h.cfg.Clock.Total(simtime.ResourcePCIe) + h.cfg.Clock.Total(simtime.ResourceHBM)
	h.arena.reset(len(ks), dim)

	rollback := func() {
		for _, d := range h.devices {
			d.DestroyHashTable()
		}
	}
	// Create (or recycle) per-GPU tables sized to their partitions and insert.
	for g, dev := range h.devices {
		capacity := len(h.parts[g])
		if capacity == 0 {
			capacity = 1
		}
		table, err := dev.CreateHashTable(capacity, dim)
		if err != nil {
			rollback()
			return fmt.Errorf("hbmps: gpu %d cannot hold its partition of %d parameters: %w", g, capacity, err)
		}
		var bytes int64
		for _, i := range h.parts[g] {
			v := h.arena.value(int(i), dim, blk.WeightsRow(int(i)), blk.G2Row(int(i)), blk.Freq[i])
			if err := table.Insert(ks[i], v); err != nil {
				rollback()
				return fmt.Errorf("hbmps: insert into gpu %d: %w", g, err)
			}
			bytes += int64(embedding.EncodedSize(dim)) + 8
		}
		// The partition travels CPU -> GPU over PCIe and is written to HBM.
		if h.cfg.Fabric != nil {
			h.cfg.Fabric.PCIe(bytes)
		}
		dev.ChargeMemory(bytes)
	}

	// Snapshot originals for delta computation at batch completion: a flat
	// copy of the arena slabs, row-parallel to ks.
	h.origSet.Reset(dim, ks)
	copy(h.origSet.Weights, h.arena.weights)
	copy(h.origSet.G2Sum, h.arena.g2)
	for i := range ks {
		h.origSet.Freq[i] = h.arena.vals[i].Freq
		h.origSet.Present[i] = true
	}
	h.loaded = true
	h.stats.BatchesLoaded++
	h.stats.ParamsLoaded += int64(len(ks))
	h.stats.LoadTime += h.cfg.Clock.Total(simtime.ResourcePCIe) + h.cfg.Clock.Total(simtime.ResourceHBM) - loadStart
	return nil
}

// StagePartition buckets the given keys by owning GPU ahead of the LoadBlock
// that will load them, so the partitioning runs concurrently with the network
// pull of the values instead of serially after it. The keys are copied; a
// later LoadBlock whose key sequence matches exactly adopts the staged
// buckets, any other load ignores them. Safe to call while a previous batch
// is still resident or training.
func (h *HBMPS) StagePartition(ks []keys.Key) {
	h.stageMu.Lock()
	defer h.stageMu.Unlock()
	h.stagedKeys = append(h.stagedKeys[:0], ks...)
	if len(h.stagedParts) != len(h.devices) {
		h.stagedParts = make([][]int32, len(h.devices))
	}
	for g := range h.stagedParts {
		h.stagedParts[g] = h.stagedParts[g][:0]
	}
	for i, k := range ks {
		g := h.gpuOf(k)
		h.stagedParts[g] = append(h.stagedParts[g], int32(i))
	}
}

// adoptStagedPartition swaps the staged buckets into h.parts when they were
// computed for exactly the key sequence now being loaded. Caller holds h.mu.
func (h *HBMPS) adoptStagedPartition(ks []keys.Key) bool {
	h.stageMu.Lock()
	defer h.stageMu.Unlock()
	if len(h.stagedParts) != len(h.devices) || !slices.Equal(h.stagedKeys, ks) {
		return false
	}
	h.parts, h.stagedParts = h.stagedParts, h.parts
	h.stagedKeys = h.stagedKeys[:0]
	if len(h.stagedParts) != len(h.devices) {
		h.stagedParts = make([][]int32, len(h.devices))
	}
	return true
}

// Loaded reports whether a working set is currently resident.
func (h *HBMPS) Loaded() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.loaded
}

// pullScratch is the pooled per-call grouping scratch of PullInto: the
// request keys and their original indices, partitioned by owning GPU. Pulls
// run concurrently on every worker goroutine, so the scratch is pooled
// rather than stored on the HBMPS.
type pullScratch struct {
	keys [][]keys.Key
	idx  [][]int32
}

var pullScratchPool = sync.Pool{New: func() any { return new(pullScratch) }}

// PullInto implements ps.Tier: one batched pull of the keys a worker running
// on GPU req.Shard needs (Algorithm 1 line 12), into a caller-owned flat
// block in request-key order, with no per-value allocation. Keys owned by
// other GPUs are fetched over NVLink. Unlike the lower tiers, every requested
// key must be resident: the working set was loaded for exactly this batch, so
// a miss is a bug.
//
// The request is grouped by owning GPU and served with one batched gather per
// device — each hash-table shard's lock is taken once per mini-batch instead
// of once per key.
func (h *HBMPS) PullInto(req ps.PullRequest, dst *ps.ValueBlock) error {
	gpuID := req.Shard
	if gpuID < 0 || gpuID >= len(h.devices) {
		return fmt.Errorf("hbmps: invalid gpu id %d", gpuID)
	}
	dst.Reset(h.cfg.Dim, req.Keys)
	sc := pullScratchPool.Get().(*pullScratch)
	defer pullScratchPool.Put(sc)
	if len(sc.keys) < len(h.devices) {
		sc.keys = make([][]keys.Key, len(h.devices))
		sc.idx = make([][]int32, len(h.devices))
	}
	for g := range h.devices {
		sc.keys[g] = sc.keys[g][:0]
		sc.idx[g] = sc.idx[g][:0]
	}
	for i, k := range req.Keys {
		g := h.gpuOf(k)
		sc.keys[g] = append(sc.keys[g], k)
		sc.idx[g] = append(sc.idx[g], int32(i))
	}
	var localBytes, remoteBytes int64
	var localCount, remoteCount int64
	valueBytes := int64(embedding.EncodedSize(h.cfg.Dim))
	for owner := range h.devices {
		sub := sc.keys[owner]
		if len(sub) == 0 {
			continue
		}
		table := h.devices[owner].Table()
		if table == nil {
			return fmt.Errorf("hbmps: gpu %d has no working set loaded", owner)
		}
		origIdx := sc.idx[owner]
		missing, ok := table.GatherBatch(sub, func(j int, v *embedding.Value) {
			i := int(origIdx[j])
			copy(dst.WeightsRow(i), v.Weights)
			copy(dst.G2Row(i), v.G2Sum)
			dst.Freq[i] = v.Freq
			dst.Present[i] = true
		})
		if !ok {
			return fmt.Errorf("hbmps: key %d not in the working set", missing)
		}
		n := int64(len(sub))
		if owner == gpuID {
			localBytes += n * valueBytes
			localCount += n
		} else {
			remoteBytes += n * valueBytes
			remoteCount += n
		}
	}
	// Local reads stream through HBM; remote reads cross NVLink.
	h.devices[gpuID].ChargeMemory(localBytes)
	if h.cfg.Fabric != nil && remoteBytes > 0 {
		h.cfg.Fabric.NVLink(remoteBytes)
	}
	pullTime := h.cfg.GPUProfile.MemoryTime(localBytes)
	if remoteBytes > 0 {
		pullTime += nvlinkTime(h.cfg, remoteBytes)
	}
	h.mu.Lock()
	h.stats.LocalPulls += localCount
	h.stats.RemotePulls += remoteCount
	h.mu.Unlock()
	h.rec.RecordPull(len(req.Keys), pullTime)
	return nil
}

// nvlinkTime mirrors what the fabric charges for an NVLink hop, for
// per-component statistics without double charging the clock.
func nvlinkTime(cfg Config, bytes int64) time.Duration {
	return cfg.NVLink.TransferTime(bytes)
}

// PushGrads applies per-parameter gradients produced by a worker on gpuID
// (Algorithm 1 line 14, Algorithm 2). Gradients for parameters owned by other
// GPUs are sent over NVLink; every owning GPU applies the sparse optimizer to
// its entry under its own lock (the analogue of the GPU atomic update).
func (h *HBMPS) PushGrads(gpuID int, grads map[keys.Key][]float32, opt optimizer.Sparse) error {
	if gpuID < 0 || gpuID >= len(h.devices) {
		return fmt.Errorf("hbmps: invalid gpu id %d", gpuID)
	}
	if opt == nil {
		return errors.New("hbmps: nil sparse optimizer")
	}
	var localBytes, remoteBytes int64
	valueBytes := int64(4 * h.cfg.Dim)
	for k, grad := range grads {
		owner := h.gpuOf(k)
		table := h.devices[owner].Table()
		if table == nil {
			return fmt.Errorf("hbmps: gpu %d has no working set loaded", owner)
		}
		err := table.Update(k, func(v *embedding.Value) {
			opt.ApplySparse(v.Weights, v.G2Sum, grad)
			v.Freq++
		})
		if err != nil {
			return fmt.Errorf("hbmps: push key %d: %w", k, err)
		}
		if owner == gpuID {
			localBytes += valueBytes
		} else {
			remoteBytes += valueBytes
		}
	}
	h.devices[gpuID].ChargeMemory(localBytes)
	if h.cfg.Fabric != nil && remoteBytes > 0 {
		h.cfg.Fabric.NVLink(remoteBytes)
	}
	pushTime := h.cfg.GPUProfile.MemoryTime(localBytes)
	if remoteBytes > 0 {
		pushTime += nvlinkTime(h.cfg, remoteBytes)
	}
	h.rec.RecordPush(len(grads), pushTime)
	return nil
}

// CommitBlock writes back one GPU worker's trained mini-batch: orig is the
// block PullInto filled at batch start and final the same block after the
// worker applied the sparse optimizer example by example. Each stored value
// becomes final + (stored - orig) — exactly final when no other worker
// touched the key (stored == orig bit-for-bit, so the correction term is an
// exact zero), and the base value plus both workers' contributions when
// example shards share hot keys within a batch. One CommitBlock replaces the
// per-example PushGrads calls of the mini-batch.
func (h *HBMPS) CommitBlock(gpuID int, orig, final *ps.ValueBlock) error {
	if gpuID < 0 || gpuID >= len(h.devices) {
		return fmt.Errorf("hbmps: invalid gpu id %d", gpuID)
	}
	if orig.Dim != h.cfg.Dim || final.Dim != h.cfg.Dim || len(orig.Keys) != len(final.Keys) {
		return fmt.Errorf("hbmps: commit blocks disagree: orig %dx%d vs final %dx%d (want dim %d)",
			len(orig.Keys), orig.Dim, len(final.Keys), final.Dim, h.cfg.Dim)
	}
	var localBytes, remoteBytes int64
	valueBytes := int64(8 * h.cfg.Dim) // weights and accumulators move back
	for i, k := range final.Keys {
		owner := h.gpuOf(k)
		table := h.devices[owner].Table()
		if table == nil {
			return fmt.Errorf("hbmps: gpu %d has no working set loaded", owner)
		}
		ow, og := orig.WeightsRow(i), orig.G2Row(i)
		fw, fg := final.WeightsRow(i), final.G2Row(i)
		freqDelta := final.Freq[i] - orig.Freq[i]
		err := table.Update(k, func(v *embedding.Value) {
			for j := range v.Weights {
				v.Weights[j] = fw[j] + (v.Weights[j] - ow[j])
			}
			for j := range v.G2Sum {
				v.G2Sum[j] = fg[j] + (v.G2Sum[j] - og[j])
			}
			v.Freq += freqDelta
		})
		if err != nil {
			return fmt.Errorf("hbmps: commit key %d: %w", k, err)
		}
		if owner == gpuID {
			localBytes += valueBytes
		} else {
			remoteBytes += valueBytes
		}
	}
	h.devices[gpuID].ChargeMemory(localBytes)
	if h.cfg.Fabric != nil && remoteBytes > 0 {
		h.cfg.Fabric.NVLink(remoteBytes)
	}
	pushTime := h.cfg.GPUProfile.MemoryTime(localBytes)
	if remoteBytes > 0 {
		pushTime += nvlinkTime(h.cfg, remoteBytes)
	}
	h.rec.RecordPush(len(final.Keys), pushTime)
	return nil
}

// PushBlock implements ps.Tier: it merges the block's per-key value deltas
// (weight, optimizer-state and reference-count increments) into the resident
// working set, in row order (callers keep rows sorted for deterministic
// storage effects). Deltas for keys not resident are ignored — this tier only
// ever holds the current batch's partitions; their authoritative copies live
// below. When req.Shard names a GPU, deltas for keys owned by other GPUs are
// charged as NVLink traffic; with ps.NoShard (deltas arriving via the
// inter-node synchronization, whose transfer time the coordinator charges)
// no fabric time is charged.
func (h *HBMPS) PushBlock(req ps.PushBlockRequest) error {
	if req.Shard != ps.NoShard && (req.Shard < 0 || req.Shard >= len(h.devices)) {
		return fmt.Errorf("hbmps: invalid gpu id %d", req.Shard)
	}
	blk := req.Block
	var localBytes, remoteBytes int64
	valueBytes := int64(embedding.EncodedSize(h.cfg.Dim))
	applied := 0
	for i, k := range blk.Keys {
		if !blk.Present[i] {
			continue
		}
		table := h.devices[h.gpuOf(k)].Table()
		if table == nil {
			continue
		}
		w, g2, freq := blk.WeightsRow(i), blk.G2Row(i), blk.Freq[i]
		if table.Update(k, func(v *embedding.Value) { v.AddFlat(w, g2, freq) }) != nil {
			continue
		}
		applied++
		if owner := h.gpuOf(k); req.Shard == ps.NoShard || owner == req.Shard {
			localBytes += valueBytes
		} else {
			remoteBytes += valueBytes
		}
	}
	var pushTime time.Duration
	if shard := req.Shard; shard != ps.NoShard {
		h.devices[shard].ChargeMemory(localBytes)
		if h.cfg.Fabric != nil && remoteBytes > 0 {
			h.cfg.Fabric.NVLink(remoteBytes)
		}
		pushTime = h.cfg.GPUProfile.MemoryTime(localBytes)
		if remoteBytes > 0 {
			pushTime += nvlinkTime(h.cfg, remoteBytes)
		}
	}
	h.rec.RecordPush(applied, pushTime)
	return nil
}

// CollectBlock writes, for every parameter of the working set whose value
// changed since it was loaded, the delta between its current value in the GPU
// hash tables and its loaded value into dst (Algorithm 1 line 16) — flat
// weight/g2 rows in working-set order (sorted, on the trainer's path), one
// pass per key under its table's shard lock, no per-key allocation once dst's
// slabs have grown to the steady delta size. The deltas are what the
// inter-node synchronization exchanges and what the MEM-PS applies to the
// authoritative copies.
//
// Each candidate row is appended speculatively and the subtraction computed
// straight into it with the fused subtract-and-test kernel; rows whose delta
// turns out to be exactly zero (weights, accumulators and frequency alike)
// are withdrawn, so dst ends up holding only the changed keys.
func (h *HBMPS) CollectBlock(dst *ps.ValueBlock) {
	h.mu.Lock()
	defer h.mu.Unlock()
	dst.Reset(h.cfg.Dim, nil)
	dst.Grow(len(h.origSet.Keys))
	for i, k := range h.origSet.Keys {
		table := h.devices[h.gpuOf(k)].Table()
		if table == nil {
			continue
		}
		// Uninitialized grow: the fused kernel below writes every element of
		// the row, and a row whose View fails is truncated before anything
		// can observe it.
		row := dst.GrowRowUninit(k)
		dw, dg := dst.WeightsRow(row), dst.G2Row(row)
		origW, origG := h.origSet.WeightsRow(i), h.origSet.G2Row(i)
		changed := false
		var freqDelta uint32
		// Read under the table's shard lock in case workers are still
		// pushing updates.
		ok := table.View(k, func(cur *embedding.Value) {
			wChanged := tensor.SubAnyNonZero(dw, cur.Weights, origW)
			gChanged := tensor.SubAnyNonZero(dg, cur.G2Sum, origG)
			changed = wChanged || gChanged
			freqDelta = cur.Freq - h.origSet.Freq[i]
		})
		if !ok || (!changed && freqDelta == 0) {
			dst.TruncateLast()
			continue
		}
		dst.Freq[row] = freqDelta
	}
}

// Name implements ps.Tier.
func (h *HBMPS) Name() string { return "hbm-ps" }

// TierStats implements ps.Tier.
func (h *HBMPS) TierStats() ps.Stats { return h.rec.TierStats() }

// Evict implements ps.Tier: it demotes keys out of HBM, freeing their slots
// for the rest of the batch. A nil slice releases the entire working set
// (the end-of-batch demotion of Algorithm 1 line 17; the caller is expected
// to have collected the deltas first). Evicted values are dropped — the
// MEM-PS below holds the authoritative copies.
func (h *HBMPS) Evict(ks []keys.Key) (int, error) {
	if ks == nil {
		n := h.WorkingSetSize()
		h.Release()
		h.rec.RecordEvict(n)
		return n, nil
	}
	n := 0
	for _, k := range ks {
		table := h.devices[h.gpuOf(k)].Table()
		if table == nil {
			continue
		}
		if table.Delete(k) {
			n++
		}
	}
	h.rec.RecordEvict(n)
	return n, nil
}

// Release destroys the per-GPU hash tables and clears the working-set
// snapshot, freeing the HBM for the next batch. The backing storage (value
// arena, snapshot block, retired tables) is retained for recycling.
func (h *HBMPS) Release() {
	h.mu.Lock()
	h.origSet.Reset(h.cfg.Dim, nil)
	h.loaded = false
	h.mu.Unlock()
	for _, d := range h.devices {
		d.DestroyHashTable()
	}
}

// WorkingSetSize returns the number of parameters currently resident across
// all GPUs.
func (h *HBMPS) WorkingSetSize() int {
	total := 0
	for _, d := range h.devices {
		if t := d.Table(); t != nil {
			total += t.Len()
		}
	}
	return total
}

// Stats returns cumulative HBM-PS statistics. The pull/push durations are
// served from the uniform tier recorder (the single source of truth) so the
// hot path maintains them only once.
func (h *HBMPS) Stats() Stats {
	rec := h.rec.TierStats()
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.stats
	st.PullTime = rec.PullTime
	st.PushTime = rec.PushTime
	return st
}
