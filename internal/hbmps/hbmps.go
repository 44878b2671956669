// Package hbmps implements the HBM parameter server (Section 4): the top tier
// of the hierarchy, which keeps the working parameters of the current batch
// in the node's GPUs and lets GPU worker threads pull, train on, and push
// updates to them without any CPU round trips.
//
// Within a node, parameters are partitioned across the GPUs by a hash
// partition policy; a worker that needs a parameter held by another GPU
// fetches it over NVLink (Algorithm 2's partition-and-send pattern). Across
// nodes, updates are synchronized by the hierarchical all-reduce of
// Appendix C.3, which the core trainer coordinates; this package exposes the
// per-node piece: delta collection with CollectBlock, whose deltas the MEM-PS
// applies.
//
// The working set lives for exactly one batch (Algorithm 1 loads it at lines
// 6-10 and drops it at line 17), and the CPU has already deduplicated and
// sorted its keys (lines 3-5) before LoadBlock sees them. So instead of the
// paper's per-GPU hash tables, the HBM-PS stores the working set as two
// position-ordered slabs — the resident values and their load-time snapshot —
// laid out GPU by GPU, and finds a key's position by walking the sorted
// working-set keys: a forward merge while a request ascends (every batched
// caller sends sorted keys), a binary search only when it steps backwards.
// The owning GPU of a position is its partition's range, so no key is hashed
// after LoadBlock.
//
// Workers move parameters in batches only: a worker pulls its whole
// mini-batch's unique keys at once with PullInto, trains against the flat
// block, and writes the result back with one CommitBlock. Each batched call
// is one pass over its keys under one working-set lock, shared by pulls and
// exclusive for writes. Stage-in (LoadBlock) and stage-out (CollectBlock) run
// one pass per GPU concurrently, as Algorithm 1 has every GPU load its own
// partition. The slabs are recycled across batches, so steady-state loads
// allocate nothing.
//
// The HBM-PS counts the work its calls do — the PCIe transfer and HBM write
// of every GPU's partition at load, and per pull and commit the HBM
// traffic of the calling GPU's own rows plus an NVLink transfer of the rows
// other GPUs hold — in Stats().Work, and into the run's counter.
package hbmps

import (
	"errors"
	"fmt"
	"sync"

	"hps/internal/cluster"
	"hps/internal/gpu"
	"hps/internal/hw"
	"hps/internal/interconnect"
	"hps/internal/keys"
	"hps/internal/ps"
)

// Config configures the HBM-PS of a single node.
type Config struct {
	// NodeID identifies the hosting node.
	NodeID int
	// NumGPUs is the number of GPUs in the node.
	NumGPUs int
	// Dim is the embedding dimension of sparse parameters.
	Dim int
	// GPUProfile describes each GPU; its HBMBytes bound each partition.
	GPUProfile hw.GPU
	// NVLink and Fabric are not read. The benchmark's layer probe still sets
	// them.
	NVLink hw.Link
	Fabric *interconnect.Fabric
	// Clock counts the work the HBM-PS does, with the rest of the run's;
	// nil counts nothing.
	Clock *hw.Counter
}

// Stats summarizes HBM-PS activity (the breakdown of Fig 4a).
type Stats struct {
	// BatchesLoaded counts LoadBlock calls.
	BatchesLoaded int64
	// ParamsLoaded counts parameters inserted across all batches.
	ParamsLoaded int64
	// RemotePulls / LocalPulls count parameter fetches by location.
	LocalPulls, RemotePulls int64
	// Work is the work of every load, pull and commit so far.
	Work hw.Work
}

// HBMPS is the HBM parameter server of one node. It is safe for concurrent
// use by the node's GPU worker goroutines. PullInto and CommitBlock are
// sharded by GPU id, and Evict demotes keys out of HBM (their authoritative
// copies live in the MEM-PS below).
type HBMPS struct {
	cfg     Config
	devices []*gpu.Device
	rec     ps.Recorder

	// mu serializes loading, collecting and releasing, and guards loaded and
	// stats.
	mu     sync.Mutex
	loaded bool
	stats  Stats

	// rw guards the working set below: pulls share it, and every call that
	// writes takes it alone, once per call.
	rw sync.RWMutex
	// The working set is laid out in partition order: GPU g's keys occupy
	// positions off[g] to off[g+1], so each GPU's pass works on memory of its
	// own. rows are the working-set keys in load order (strictly ascending),
	// parts[g] the rows GPU g owns, ascending, and pos[i] row i's position.
	// cur holds the resident values and origSet snapshots them for delta
	// computation at batch completion, both by position; a position whose
	// cur row is not Present was evicted. reserved[g] is the HBM GPU g
	// holds for its partition. All of it is recycled across batches.
	rows     []keys.Key
	parts    [][]int32
	off      []int
	pos      []int32
	cur      ps.ValueBlock
	origSet  ps.ValueBlock
	reserved []int64

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

// New constructs the HBM-PS for one node, creating its simulated GPU devices.
func New(cfg Config) (*HBMPS, error) {
	if cfg.NumGPUs < 1 {
		return nil, fmt.Errorf("hbmps: need at least one GPU, have %d", cfg.NumGPUs)
	}
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("hbmps: invalid embedding dim %d", cfg.Dim)
	}
	n := cfg.NumGPUs
	h := &HBMPS{cfg: cfg, parts: make([][]int32, n), off: make([]int, n+1),
		reserved: make([]int64, n), passes: make([]gpuPass, n)}
	for i := 0; i < n; i++ {
		h.devices = append(h.devices, gpu.NewDevice(cfg.NodeID, i, cfg.GPUProfile))
		h.passes[i] = gpuPass{h: h, gpu: i}
	}
	return h, nil
}

// NumGPUs returns the number of GPUs managed by this HBM-PS.
func (h *HBMPS) NumGPUs() int { return len(h.devices) }

// gpuOf returns the GPU that owns key k under the hash partition policy of
// Section 4.1 / Appendix C.1.
func (h *HBMPS) gpuOf(k keys.Key) int { return k.HashShard(len(h.devices)) }

// cursor resolves request keys to working-set positions. No row before at is
// above the previous key (at is one past its row when it was found), so a
// request that ascends is one forward merge over the sorted rows.
type cursor struct {
	rows []keys.Key
	pos  []int32
	at   int
}

func (h *HBMPS) cursor() cursor { return cursor{rows: h.rows, pos: h.pos} }

// position returns the working-set position of k, or false when k is not in
// the working set. While keys ascend it gallops forward from the previous
// key's row (one comparison for the next row of a dense subset); a key below
// the previous one falls back to a binary search of the rows before it.
func (c *cursor) position(k keys.Key) (int, bool) {
	rows := c.rows
	lo, hi := c.at, len(rows)
	if lo < hi && rows[lo] == k {
		c.at = lo + 1
		return int(c.pos[lo]), true
	}
	if lo > 0 && rows[lo-1] >= k {
		lo, hi = 0, lo-1 // the answer is at or before row at-1
	} else {
		for step := 1; ; step *= 2 {
			probe := lo + step - 1
			if probe >= hi {
				break
			}
			if rows[probe] >= k {
				hi = probe
				break
			}
			lo = probe + 1
		}
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rows[m] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(rows) || rows[lo] != k {
		c.at = lo
		return 0, false
	}
	c.at = lo + 1
	return int(c.pos[lo]), true
}

// walk resolves ks against the working set in one pass and calls fn(i, p)
// for every row i whose key is resident at position p, in request order.
// It returns how many rows it visited, how many of those GPU g's partition
// holds, and the first row whose key is not resident, or -1. The caller
// holds h.rw.
func (h *HBMPS) walk(g int, ks []keys.Key, fn func(i, p int)) (n, local, miss int) {
	lo, hi := h.off[g], h.off[g+1]
	c, live := h.cursor(), h.cur.Present
	miss = -1
	for i, k := range ks {
		p, ok := c.position(k)
		if !ok || !live[p] {
			if miss < 0 {
				miss = i
			}
			continue
		}
		fn(i, p)
		n++
		if lo <= p && p < hi {
			local++
		}
	}
	return n, local, miss
}

// LoadBlock partitions the working parameters — the block the trainer feeds
// straight from the MEM-PS pull, every row present, keys strictly ascending —
// across the node's GPUs in a non-overlapping fashion (Algorithm 1 lines
// 6-10): every GPU reserves HBM for its partition and copies it into its own
// stretch of the slabs concurrently. The values are copied; the caller keeps
// ownership of the block. Every GPU's partition counts one PCIe transfer and
// one HBM write. Loading fails if any GPU's HBM cannot hold its partition.
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
	ks := blk.Keys
	for i := range ks {
		if !blk.Present[i] {
			return fmt.Errorf("hbmps: working-set block row %d (key %d) is absent", i, ks[i])
		}
		if i > 0 && ks[i] <= ks[i-1] {
			return fmt.Errorf("hbmps: working-set block keys not strictly ascending: row %d (key %d) after key %d",
				i, ks[i], ks[i-1])
		}
	}
	// The per-GPU passes below take no lock, so holding rw while eachGPU
	// waits for them cannot deadlock.
	h.rw.Lock()
	defer h.rw.Unlock()

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
	h.rows = append(h.rows[:0], ks...)

	// Each pass writes its positions, keys included.
	h.cur.ResetUninit(dim, ks)
	h.origSet.ResetUninit(dim, ks)
	h.src = blk
	err := h.eachGPU((*HBMPS).loadGPU)
	h.src = nil
	if err != nil {
		h.unload()
		return err
	}
	h.loaded = true
	h.stats.BatchesLoaded++
	h.stats.ParamsLoaded += int64(len(ks))
	// Each partition, keys and rows, travels CPU -> GPU over PCIe and is
	// written to HBM.
	var w hw.Work
	for _, part := range h.parts {
		moved := float64(cluster.PayloadBytes(dim, len(part), len(part)))
		w.Add(hw.Ops(hw.ResPCIe, 1, moved))
		w.Add(hw.Ops(hw.ResHBM, 1, moved))
	}
	h.stats.Work.Add(w)
	h.cfg.Clock.Add(w)
	return nil
}

// loadGPU is GPU g's pass of LoadBlock: reserve HBM for its partition, copy
// each of its rows of h.src to its position in the snapshot, and copy the
// snapshot's stretch to the resident slab.
func (h *HBMPS) loadGPU(g int) error {
	dim := h.cfg.Dim
	part, base := h.parts[g], h.off[g]
	bytes := int64(len(part)) * gpu.BytesPerEntry(dim)
	if err := h.devices[g].Alloc(bytes); err != nil {
		return fmt.Errorf("hbmps: gpu %d cannot hold its partition of %d parameters: %w", g, len(part), err)
	}
	h.reserved[g] = bytes
	blk, orig, cur := h.src, &h.origSet, &h.cur
	for j, i := range part {
		p := base + j
		orig.Keys[p] = blk.Keys[i]
		copy(orig.WeightsRow(p), blk.WeightsRow(int(i)))
		copy(orig.G2Row(p), blk.G2Row(int(i)))
		orig.Freq[p] = blk.Freq[i]
	}
	end := base + len(part)
	copy(cur.Weights[base*dim:end*dim], orig.Weights[base*dim:end*dim])
	copy(cur.G2Sum[base*dim:end*dim], orig.G2Sum[base*dim:end*dim])
	copy(cur.Freq[base:end], orig.Freq[base:end])
	for p := base; p < end; p++ {
		orig.Present[p], cur.Present[p] = true, true
	}
	return nil
}

// unload empties the working set and returns every GPU's HBM reservation. The
// caller holds h.mu and h.rw.
func (h *HBMPS) unload() {
	dim := h.cfg.Dim
	h.rows = h.rows[:0]
	h.cur.Reset(dim, nil)
	h.origSet.Reset(dim, nil)
	clear(h.off)
	for g, d := range h.devices {
		d.Free(h.reserved[g])
		h.reserved[g] = 0
	}
	h.loaded = false
}

// PullInto is one batched pull of the keys a worker running on GPU req.Shard
// needs (Algorithm 1 line 12), into a caller-owned flat block in request-key
// order, with no per-value allocation. Keys owned by other GPUs are fetched
// over NVLink. Unlike the lower tiers, every requested key must be resident:
// the working set was loaded for exactly this batch, so a miss is a bug.
//
// The keys are served in one merge pass under the working set's read lock,
// taken once per call.
func (h *HBMPS) PullInto(req ps.PullRequest, dst *ps.ValueBlock) error {
	gpuID := req.Shard
	if gpuID < 0 || gpuID >= len(h.devices) {
		return fmt.Errorf("hbmps: invalid gpu id %d", gpuID)
	}
	dst.Reset(h.cfg.Dim, req.Keys)
	cur := &h.cur
	h.rw.RLock()
	n, local, miss := h.walk(gpuID, req.Keys, func(i, p int) {
		copy(dst.WeightsRow(i), cur.WeightsRow(p))
		copy(dst.G2Row(i), cur.G2Row(p))
		dst.Freq[i] = cur.Freq[p]
		dst.Present[i] = true
	})
	h.rw.RUnlock()
	if miss >= 0 {
		return fmt.Errorf("hbmps: key %d not in the working set", req.Keys[miss])
	}
	// Local reads stream through HBM; remote reads cross NVLink.
	h.count(h.traffic(local, n-local), int64(local), int64(n-local))
	h.rec.RecordPull(len(req.Keys))
	return nil
}

// traffic is the work of one kernel streaming local rows through its GPU's
// HBM and moving remote rows to or from other GPUs: an NVLink transfer, when
// there are any. A row is sized as every modelled transfer sizes it
// (cluster.PayloadBytes); the keys stay put.
func (h *HBMPS) traffic(local, remote int) hw.Work {
	w := hw.Ops(hw.ResHBM, 1, float64(cluster.PayloadBytes(h.cfg.Dim, 0, local)))
	if remote > 0 {
		w.Add(hw.Ops(hw.ResNVLink, 1, float64(cluster.PayloadBytes(h.cfg.Dim, 0, remote))))
	}
	return w
}

// count adds a call's work, and the local and remote parameter fetches of a
// pull, to the statistics and the run's counter.
func (h *HBMPS) count(w hw.Work, localPulls, remotePulls int64) {
	h.mu.Lock()
	h.stats.Work.Add(w)
	h.stats.LocalPulls += localPulls
	h.stats.RemotePulls += remotePulls
	h.mu.Unlock()
	h.cfg.Clock.Add(w)
}

// Name identifies the tier in reports.
func (h *HBMPS) Name() string { return "hbm-ps" }

// TierStats returns the uniform cumulative statistics of the tier.
func (h *HBMPS) TierStats() ps.Stats { return h.rec.TierStats() }

// Evict demotes keys out of HBM for the rest of the batch. A nil slice
// releases the entire working set (the end-of-batch demotion of Algorithm 1
// line 17; the caller is expected to have collected the deltas first). Evicted values are dropped — the MEM-PS below holds the
// authoritative copies — and their slab rows stay reserved until Release.
func (h *HBMPS) Evict(ks []keys.Key) (int, error) {
	if ks == nil {
		n := h.WorkingSetSize()
		h.Release()
		h.rec.RecordEvict(n)
		return n, nil
	}
	h.rw.Lock()
	c, n := h.cursor(), 0
	for _, k := range ks {
		if p, ok := c.position(k); ok && h.cur.Present[p] {
			h.cur.Present[p] = false
			n++
		}
	}
	h.rw.Unlock()
	h.rec.RecordEvict(n)
	return n, nil
}

// Release clears the working set and returns every GPU's HBM reservation for
// the next batch. The slabs are retained for recycling.
func (h *HBMPS) Release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rw.Lock()
	defer h.rw.Unlock()
	h.unload()
}

// residentOn returns the number of parameters resident on GPU g.
func (h *HBMPS) residentOn(g int) int {
	h.rw.RLock()
	defer h.rw.RUnlock()
	n := 0
	for _, live := range h.cur.Present[h.off[g]:h.off[g+1]] {
		if live {
			n++
		}
	}
	return n
}

// WorkingSetSize returns the number of parameters currently resident across
// all GPUs.
func (h *HBMPS) WorkingSetSize() int {
	total := 0
	for g := range h.devices {
		total += h.residentOn(g)
	}
	return total
}

// Stats returns cumulative HBM-PS statistics.
func (h *HBMPS) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}
