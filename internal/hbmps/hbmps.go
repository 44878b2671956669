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
// path. Every batched call groups its keys by owning GPU and then by hash-table
// shard, so it looks each device's table up once and takes each shard's lock
// once. Stage-in (LoadBlock) and stage-out (CollectBlock) run one pass per GPU
// concurrently, as Algorithm 1 has every GPU load its own partition.
// Working-set storage is slab-backed and recycled across batches (value arena
// + reusable GPU hash tables), so steady-state loads allocate nothing.
package hbmps

import (
	"errors"
	"fmt"
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
	// The working set is laid out in partition order: GPU g's keys occupy
	// positions off[g] to off[g+1], so each GPU's pass works on memory of its
	// own. parts[g] are the working-set rows GPU g owns, ascending, and
	// pos[i] is row i's position. arena backs the values resident in the GPU
	// tables and origSet snapshots them for delta computation at batch
	// completion, both by position. All of it is recycled across batches.
	parts   [][]int32
	off     []int
	pos     []int32
	arena   valueArena
	origSet ps.ValueBlock
	stats   Stats

	// Per-GPU passes (pergpu.go), used under mu. src is the block LoadBlock
	// is loading and dst the block CollectBlock is filling, for the passes to
	// read; CollectBlock's passes leave each position's frequency delta in
	// freqDelta and whether its delta is non-zero in changed.
	passes    []gpuPass
	passWG    sync.WaitGroup
	src       *ps.ValueBlock
	dst       *ps.ValueBlock
	freqDelta []uint32
	changed   []bool
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
	h := &HBMPS{cfg: cfg, off: make([]int, cfg.NumGPUs+1), passes: make([]gpuPass, cfg.NumGPUs)}
	for i := 0; i < cfg.NumGPUs; i++ {
		h.devices = append(h.devices, gpu.NewDevice(cfg.NodeID, i, cfg.GPUProfile, cfg.Clock))
		h.passes[i] = gpuPass{h: h, gpu: i}
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
// (Algorithm 1 lines 6-10): every GPU creates and fills its own table
// concurrently, from its own stretch of the value arena. The values are copied;
// the caller keeps ownership of the block. Loading charges PCIe transfer and
// HBM insertion time, and fails if any GPU's HBM cannot hold its partition.
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

	// Partition key indices across GPUs (buffers recycled across batches).
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

	h.pos = ps.Resize(h.pos, len(ks))
	for g, part := range h.parts {
		h.off[g+1] = h.off[g] + len(part)
		for j, i := range part {
			h.pos[i] = int32(h.off[g] + j)
		}
	}

	loadStart := h.cfg.Clock.Total(simtime.ResourcePCIe) + h.cfg.Clock.Total(simtime.ResourceHBM)
	h.arena.reset(len(ks), dim)
	h.origSet.ResetUninit(dim, ks) // each pass writes its positions, keys included
	h.src = blk
	err := h.eachGPU((*HBMPS).loadGPU)
	h.src = nil
	if err != nil {
		for _, d := range h.devices {
			d.DestroyHashTable()
		}
		h.origSet.Reset(dim, nil)
		return err
	}
	h.loaded = true
	h.stats.BatchesLoaded++
	h.stats.ParamsLoaded += int64(len(ks))
	h.stats.LoadTime += h.cfg.Clock.Total(simtime.ResourcePCIe) + h.cfg.Clock.Total(simtime.ResourceHBM) - loadStart
	return nil
}

// loadGPU is GPU g's pass of LoadBlock: create (or recycle) its table sized to
// its partition, and copy each of its rows of h.src to its position in the
// snapshot and the arena, and into the table.
func (h *HBMPS) loadGPU(g int) error {
	dim := h.cfg.Dim
	part, base := h.parts[g], h.off[g]
	capacity := max(len(part), 1)
	table, err := h.devices[g].CreateHashTable(capacity, dim)
	if err != nil {
		return fmt.Errorf("hbmps: gpu %d cannot hold its partition of %d parameters: %w", g, capacity, err)
	}
	blk, orig := h.src, &h.origSet
	ks := orig.Keys[base : base+len(part)]
	for j, i := range part {
		ks[j] = blk.Keys[i]
	}
	err = table.InsertBatch(ks, func(j int) *embedding.Value {
		i, p := int(part[j]), base+j
		w, g2, freq := blk.WeightsRow(i), blk.G2Row(i), blk.Freq[i]
		copy(orig.WeightsRow(p), w)
		copy(orig.G2Row(p), g2)
		orig.Freq[p], orig.Present[p] = freq, true
		return h.arena.value(p, dim, w, g2, freq)
	})
	if err != nil {
		return fmt.Errorf("hbmps: insert into gpu %d: %w", g, err)
	}
	// The partition travels CPU -> GPU over PCIe and is written to HBM.
	bytes := int64(len(part)) * (int64(embedding.EncodedSize(dim)) + 8)
	if h.cfg.Fabric != nil {
		h.cfg.Fabric.PCIe(bytes)
	}
	h.devices[g].ChargeMemory(bytes)
	return nil
}

// Loaded reports whether a working set is currently resident.
func (h *HBMPS) Loaded() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.loaded
}

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
	gr := h.groupByGPU(req.Keys, nil)
	defer groupPool.Put(gr)
	var localBytes, remoteBytes int64
	var localCount, remoteCount int64
	valueBytes := int64(embedding.EncodedSize(h.cfg.Dim))
	for owner := range h.devices {
		sub := gr.keys[owner]
		if len(sub) == 0 {
			continue
		}
		table := h.devices[owner].Table()
		if table == nil {
			return fmt.Errorf("hbmps: gpu %d has no working set loaded", owner)
		}
		origIdx := gr.idx[owner]
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
// per-example PushGrads calls of the mini-batch. The keys are grouped by
// owning GPU and then by table shard, so each shard's write lock is taken
// once per commit; a key missing from the working set fails the commit after
// every present key has been written.
func (h *HBMPS) CommitBlock(gpuID int, orig, final *ps.ValueBlock) error {
	if gpuID < 0 || gpuID >= len(h.devices) {
		return fmt.Errorf("hbmps: invalid gpu id %d", gpuID)
	}
	if orig.Dim != h.cfg.Dim || final.Dim != h.cfg.Dim || len(orig.Keys) != len(final.Keys) {
		return fmt.Errorf("hbmps: commit blocks disagree: orig %dx%d vs final %dx%d (want dim %d)",
			len(orig.Keys), orig.Dim, len(final.Keys), final.Dim, h.cfg.Dim)
	}
	gr := h.groupByGPU(final.Keys, nil)
	defer groupPool.Put(gr)
	var localBytes, remoteBytes int64
	valueBytes := int64(8 * h.cfg.Dim) // weights and accumulators move back
	for owner := range h.devices {
		sub := gr.keys[owner]
		if len(sub) == 0 {
			continue
		}
		table := h.devices[owner].Table()
		if table == nil {
			return fmt.Errorf("hbmps: gpu %d has no working set loaded", owner)
		}
		rows := gr.idx[owner]
		missing, ok := table.UpdateBatch(sub, func(j int, v *embedding.Value) {
			i := int(rows[j])
			ow, og := orig.WeightsRow(i), orig.G2Row(i)
			fw, fg := final.WeightsRow(i), final.G2Row(i)
			for e := range v.Weights {
				v.Weights[e] = fw[e] + (v.Weights[e] - ow[e])
			}
			for e := range v.G2Sum {
				v.G2Sum[e] = fg[e] + (v.G2Sum[e] - og[e])
			}
			v.Freq += final.Freq[i] - orig.Freq[i]
		})
		if !ok {
			return fmt.Errorf("hbmps: commit key %d: %w", missing, gpu.ErrKeyNotFound)
		}
		if n := int64(len(sub)) * valueBytes; owner == gpuID {
			localBytes += n
		} else {
			remoteBytes += n
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
	gr := h.groupByGPU(blk.Keys, blk.Present)
	defer groupPool.Put(gr)
	var localBytes, remoteBytes int64
	valueBytes := int64(embedding.EncodedSize(h.cfg.Dim))
	applied := 0
	for owner := range h.devices {
		table := h.devices[owner].Table()
		if len(gr.keys[owner]) == 0 || table == nil {
			continue
		}
		rows, n := gr.idx[owner], 0
		table.UpdateBatch(gr.keys[owner], func(j int, v *embedding.Value) {
			i := int(rows[j])
			v.AddFlat(blk.WeightsRow(i), blk.G2Row(i), blk.Freq[i])
			n++
		})
		applied += n
		if req.Shard == ps.NoShard || owner == req.Shard {
			localBytes += int64(n) * valueBytes
		} else {
			remoteBytes += int64(n) * valueBytes
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
// weight/g2 rows in working-set order (sorted, on the trainer's path), no
// per-key allocation once dst's slabs have grown to the steady delta size.
// The deltas are what the inter-node synchronization exchanges and what the
// MEM-PS applies to the authoritative copies.
//
// Every GPU computes the deltas of its own partition concurrently, reading
// its table through one batched gather (each shard's read lock once), straight
// into the partition's rows of dst with the fused subtract-and-test kernel.
// A final pass in working-set order then compacts the changed rows to the
// front, so dst holds exactly the changed keys, in the order a serial
// collection would have written them.
func (h *HBMPS) CollectBlock(dst *ps.ValueBlock) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.origSet.Keys)
	dst.ResetUninit(h.cfg.Dim, h.origSet.Keys)
	if !h.loaded {
		return // nothing resident: no deltas (and no partition to walk)
	}
	h.freqDelta = ps.Resize(h.freqDelta, n)
	h.changed = ps.Resize(h.changed, n)
	h.dst = dst
	h.eachGPU((*HBMPS).collectGPU)
	h.dst = nil

	w := 0
	for i, p := range h.pos {
		if !h.changed[p] {
			continue
		}
		if w != i {
			copy(dst.WeightsRow(w), dst.WeightsRow(i))
			copy(dst.G2Row(w), dst.G2Row(i))
		}
		dst.Keys[w], dst.Freq[w], dst.Present[w] = h.origSet.Keys[p], h.freqDelta[p], true
		w++
	}
	dst.Truncate(w)
}

// collectGPU is GPU g's pass of CollectBlock: the delta of every row of its
// partition into the same row of h.dst, and its frequency delta and whether
// any of it is non-zero into the row's position of h.freqDelta and
// h.changed. A key no longer in the table (evicted) counts as unchanged.
func (h *HBMPS) collectGPU(g int) error {
	part, base := h.parts[g], h.off[g]
	clear(h.changed[base : base+len(part)])
	table := h.devices[g].Table()
	if table == nil {
		return nil
	}
	dst, orig := h.dst, &h.origSet
	table.GatherBatch(orig.Keys[base:base+len(part)], func(j int, cur *embedding.Value) {
		i, p := int(part[j]), base+j
		wChanged := tensor.SubAnyNonZero(dst.WeightsRow(i), cur.Weights, orig.WeightsRow(p))
		gChanged := tensor.SubAnyNonZero(dst.G2Row(i), cur.G2Sum, orig.G2Row(p))
		h.freqDelta[p] = cur.Freq - orig.Freq[p]
		h.changed[p] = wChanged || gChanged || h.freqDelta[p] != 0
	})
	return nil
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
	gr := h.groupByGPU(ks, nil)
	defer groupPool.Put(gr)
	n := 0
	for owner := range h.devices {
		table := h.devices[owner].Table()
		if table == nil {
			continue
		}
		for _, k := range gr.keys[owner] {
			if table.Delete(k) {
				n++
			}
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
