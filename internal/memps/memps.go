// Package memps implements the CPU main-memory parameter server (Section 5,
// Appendix D): the middle tier of the hierarchy.
//
// For every training batch the MEM-PS resolves the referenced parameters it
// owns from its cache or its SSD-PS, pins them in memory while the batch is in
// flight, applies the updates collected from the HBM-PS afterwards, and
// evicts infrequently used parameters to the SSD-PS when memory runs short. A
// combined LRU+LFU cache keeps the frequently used parameters resident to
// reduce SSD I/O. In one process the owner resolves the batch's keys for
// every node at once (PrepareOwnedInto): each key it owns is probed, loaded
// and pinned once per batch however many nodes reference it, and its value is
// copied straight into each of those nodes' blocks.
//
// Every resident value is a row of one slab per MEM-PS (a ps.ValueBlock with
// a free list); the cache maps a key to its row, and no Go map or per-row
// heap object sits between the cache and the SSD-PS. An owned key resolves
// in one place, resolve (misspath.go): from the cache, else the dump buffer,
// else the SSD-PS in one batched load per call that decodes each record
// straight into the slab row the miss took, else keyed init into that row.
// A batch's prepare pins its keys in the probe that finds or inserts them
// and leaves each pin's cache.Ref in the WorkingSet, through which the
// in-process push (PushBatch, PushBlockPair) and CompleteBatch reach the
// pinned rows without a probe. The batch prepares, the pull RPCs (HandlePullBlock,
// HandlePullBlockWire) and the pushes (PushBlock, PushBlockPair) all go
// through it; only the no-create read behind HandleLookupBlock, Lookup and
// ExportInto does not. A node that assembles its own working set
// (PrepareInto, PullInto) pulls the remotely-owned keys from their owners'
// MEM-PS over a cluster.Transport; every MEM-PS the product builds — the
// trainer's in-process nodes and the shard servers — gets cluster.NoRoute
// instead, so those two are reached only by the benchmark's layer probe and
// the ps.Tier conformance suite.
//
// An eviction copies the row into the dump buffer — a block of rows in
// eviction order, indexed by one keys.Table — and frees the slab row. Once a
// batch completes with the buffer full, the whole block is handed to a
// background write that dumps it to the SSD-PS and then compacts the SSD-PS
// if needed, so no batch waits for an SSD write. At most one write runs at a
// time, started in eviction order. The rows it holds stay in its block,
// marked as being written, until they are on the SSD-PS: every lookup finds
// them there, and none modifies them. Flush and Evict wait the write out
// first.
package memps

import (
	"errors"
	"fmt"
	"sync"

	"hps/internal/cache"
	"hps/internal/cluster"
	"hps/internal/gpu"
	"hps/internal/hw"
	"hps/internal/interconnect"
	"hps/internal/keys"
	"hps/internal/ps"
	"hps/internal/ssdps"
)

// Config configures a MEM-PS instance (one per node).
type Config struct {
	// NodeID identifies this node within the topology.
	NodeID int
	// Dim is the embedding dimension of sparse parameters.
	Dim int
	// Topology is the cluster shape; parameters are owned by node
	// Topology.NodeOf(key).
	Topology cluster.Topology
	// Transport reaches the MEM-PS of other nodes; nil is allowed for a
	// single-node deployment.
	Transport cluster.Transport
	// Store is the local SSD-PS shard. It must not be nil.
	Store *ssdps.Store
	// Fabric counts the Ethernet transfers of the rows this node receives
	// from peers; nil counts nothing.
	Fabric *interconnect.Fabric
	// Clock is not read. The benchmark's layer probe still sets it.
	Clock *hw.Counter
	// MemoryBudgetBytes bounds the parameter cache size. When zero,
	// LRUEntries/LFUEntries must be set instead.
	MemoryBudgetBytes int64
	// LRUEntries / LFUEntries directly set the cache level capacities,
	// overriding MemoryBudgetBytes when non-zero.
	LRUEntries, LFUEntries int
	// DumpBatchSize is how many evicted parameters accumulate before they are
	// written to the SSD-PS as new files; 0 uses 256.
	DumpBatchSize int
	// Seed seeds the initializer for never-before-seen parameters.
	Seed int64
}

// Stats summarizes the work a MEM-PS has done.
type Stats struct {
	// BatchesPrepared counts working-set assemblies (PrepareInto,
	// PrepareOwnedInto and PullInto calls).
	BatchesPrepared int64
	// LocalKeys counts the working parameters this node resolved from its
	// own shard; RemoteKeys counts those it received from peers.
	LocalKeys, RemoteKeys int64
	// CacheHits / CacheMisses count local lookups served by / missing the cache.
	CacheHits, CacheMisses int64
	// PushMisses counts pushed rows whose key had left the cache by the time
	// the push applied them (resolved from the dump buffer or the SSD-PS).
	PushMisses int64
	// SSDLoads counts parameters loaded from the SSD-PS.
	SSDLoads int64
	// NewParams counts parameters created on first reference.
	NewParams int64
	// Dumped counts parameters written to the SSD-PS.
	Dumped int64
	// Imported counts parameters installed by key-range state transfers
	// (re-replication / resharding).
	Imported int64
	// RemotePulls counts the pulls from peers this node received rows
	// through: remote pull RPCs, or peers' PrepareOwnedInto copies.
	RemotePulls int64
}

// PullStats describes a single working-set assembly.
type PullStats struct {
	// LocalKeys and RemoteKeys count the working parameters by ownership.
	LocalKeys, RemoteKeys int
	// CacheHits and CacheMisses count local cache outcomes.
	CacheHits, CacheMisses int
	// SSDHits counts local misses served by the SSD-PS.
	SSDHits int
	// NewParams counts local parameters created on first reference.
	NewParams int
	// Work is what the assembly did: the SSD-PS loads of its cache misses
	// and the Ethernet transfers of the rows peers sent. The two paths
	// overlap, so a batch pays the slower (hw.Times.Max).
	Work hw.Work
}

// WorkingSet describes the prepared parameter set of one batch, whose values
// PrepareInto or PrepareOwnedInto assembled into caller-owned ValueBlocks
// ready to be partitioned across the nodes' GPUs.
type WorkingSet struct {
	// LocalKeys are the working parameters owned (and pinned) by this node.
	LocalKeys []keys.Key
	// RemoteKeys are the working parameters owned by other nodes.
	RemoteKeys []keys.Key
	// Stats describes how the working set was assembled.
	Stats PullStats
	// refs[x] is the Ref of LocalKeys[x]'s pin: the push and CompleteBatch
	// reach the batch's pinned rows through it, without a probe.
	refs []cache.Ref[int32]
}

// MemPS is the main-memory parameter server of one node.
// It is safe for concurrent use. It implements ps.Tier: PullInto assembles an
// unpinned working set (local cache/SSD plus remote owners), PushBlock merges
// collected deltas into the owned shard, and Evict demotes parameters to the
// SSD-PS below.
type MemPS struct {
	cfg Config
	rec ps.Recorder

	mu sync.Mutex
	// cache holds, for every resident key, the slab row of its value.
	cache *cache.Combined[int32]
	// rows is the slab of resident values: row s of it is the value of the
	// cache entry holding s. free lists the rows no entry holds. A pinned
	// entry's row stays where it is until the entry is unpinned.
	rows  ps.ValueBlock
	free  []int32
	seed  int64 // keyed-init seed: same (seed, key) -> same initial value
	stats Stats

	// The dump buffer: dump holds the rows evicted in the current epoch, in
	// eviction order, of which dumpLive are present (a row pulled back into
	// the cache is marked absent); out holds the rows of the background write
	// in flight, which owns it read-only until the write settles. dumped
	// maps a key to its latest row in either, with the epoch that tells
	// which.
	dump, out *ps.ValueBlock
	dumpLive  int
	dumped    keys.Table[dumpRow]

	// The background write. epoch is the dump buffer's current epoch: a
	// write starts by advancing it, so the rows it holds are exactly the
	// buffer entries of an older epoch. writing is set while it runs, and
	// writeDone (on mu) is signalled when it ends; writeErr is the failure
	// of the last write, returned by the next call that waits for it.
	epoch     uint32
	writing   bool
	writeDone sync.Cond
	writeErr  error
	// writeStore is the store the write in flight dumps to; dumpErr and
	// ioErr are the failures of its dump and of its I/O as a whole.
	writeStore     *ssdps.Store
	dumpErr, ioErr error
	// startWrite and writeIO are write and dumpOut, bound once so that
	// starting a write allocates nothing.
	startWrite, writeIO func()
	// writeHook, when set, is handed every background write's SSD-PS I/O
	// (the dump and the compaction) to run. Tests use it to hold a write in
	// flight and to watch for overlapping writes.
	writeHook func(io func())

	// Scratch reused across batches (safe: every user holds m.mu throughout).
	applyOrder []int
	applyKeys  []keys.Key
	// restKeys are the keys of a push its working set does not hold pinned,
	// and restAt their positions in the push.
	restKeys []keys.Key
	restAt   []int
	served   ps.ValueBlock
	miss     missPass
	// spareRefs are the Ref slices of completed working sets, for the next.
	spareRefs [][]cache.Ref[int32]
}

var (
	_ ps.Tier                      = (*MemPS)(nil)
	_ cluster.BlockPullWireHandler = (*MemPS)(nil)
	_ cluster.BlockPushHandler     = (*MemPS)(nil)
)

// New constructs a MEM-PS. It validates the configuration.
func New(cfg Config) (*MemPS, error) {
	if cfg.Store == nil {
		return nil, errors.New("memps: nil SSD-PS store")
	}
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("memps: invalid embedding dim %d", cfg.Dim)
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.Topology.Nodes > 1 && cfg.Transport == nil {
		return nil, errors.New("memps: multi-node topology requires a transport")
	}
	lru, lfu := cfg.LRUEntries, cfg.LFUEntries
	if lru <= 0 || lfu <= 0 {
		perEntry := gpu.BytesPerEntry(cfg.Dim)
		entries := int(cfg.MemoryBudgetBytes / perEntry)
		if entries < 16 {
			entries = 16
		}
		// The LRU holds the working/pinned set; the LFU holds the hot set.
		if lru <= 0 {
			lru = entries / 2
		}
		if lfu <= 0 {
			lfu = entries - entries/2
		}
	}
	if cfg.DumpBatchSize <= 0 {
		cfg.DumpBatchSize = 256
	}
	seed := cfg.Seed ^ int64(cfg.NodeID)<<32
	if cfg.Topology.Replicas > 1 {
		// Replicated deployments need a node-INDEPENDENT keyed-init seed: a
		// backup that first-references a key while applying a replicated
		// delta must materialize the exact initial value its primary did, or
		// the replica diverges by the difference of two random inits.
		// Unreplicated deployments keep the per-node decorrelation (and their
		// historical trajectories).
		seed = cfg.Seed
	}
	m := &MemPS{
		cfg:  cfg,
		seed: seed,
		dump: ps.NewValueBlock(cfg.Dim),
		out:  ps.NewValueBlock(cfg.Dim),
	}
	m.rows.Dim = cfg.Dim
	m.writeDone.L = &m.mu
	m.startWrite, m.writeIO = m.write, m.dumpOut
	m.cache = cache.NewCombined[int32](lru, lfu, func(k uint64, slot int32) {
		// Fully evicted from memory: buffer for a batched SSD dump. A row of
		// the key that the write in flight holds is an older copy; this one
		// replaces it in the buffer.
		m.toDump(keys.Key(k), &m.rows, slot)
		m.free = append(m.free, slot)
	})
	return m, nil
}

// NodeID returns this MEM-PS's node id.
func (m *MemPS) NodeID() int { return m.cfg.NodeID }

// Dim returns the embedding dimension.
func (m *MemPS) Dim() int { return m.cfg.Dim }

// holder answers, for one call, whether this node holds the parameter shard
// containing a key — as its primary, or (in a replicated deployment) as one
// of its backups. A backup both applies the deltas its primary forwards and
// answers reads for the keys it replicates, which is what makes promotion a
// pure membership change. The ring is loaded once per call, so a call sees
// one ring even when a membership change lands while it runs.
type holder struct {
	ring           *cluster.Ring
	node, replicas int
}

func (m *MemPS) holder() holder {
	return holder{m.cfg.Topology.Ring(), m.cfg.NodeID, max(m.cfg.Topology.Replicas, 1)}
}

func (h holder) holds(k keys.Key) bool { return h.ring.ReplicaRank(k, h.node, h.replicas) >= 0 }

// alloc takes a free slab row for k and returns it, not present. The caller
// must hold m.mu.
func (m *MemPS) alloc(k keys.Key) int32 {
	if n := len(m.free); n > 0 {
		slot := m.free[n-1]
		m.free = m.free[:n-1]
		m.rows.Keys[slot], m.rows.Present[slot] = k, false
		return slot
	}
	slot := int32(m.rows.GrowRowUninit(k))
	m.rows.Present[slot] = false
	return slot
}

// Name implements ps.Tier.
func (m *MemPS) Name() string { return "mem-ps" }

// TierStats implements ps.Tier.
func (m *MemPS) TierStats() ps.Stats { return m.rec.TierStats() }

// CacheStats returns the cumulative cache statistics (Fig 4c's hit rate).
func (m *MemPS) CacheStats() cache.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cache.Stats()
}

// ResetCacheStats clears the cache statistics (used for per-batch hit-rate
// reporting).
func (m *MemPS) ResetCacheStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cache.ResetStats()
}

// PinnedKeys returns how many cached parameters the batches in flight hold
// pinned; between batches it is zero.
func (m *MemPS) PinnedKeys() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	m.cache.Range(func(k uint64, _ int32) bool {
		if m.cache.Pinned(k) {
			n++
		}
		return true
	})
	return n
}

// Stats returns cumulative MEM-PS statistics.
func (m *MemPS) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Store exposes the underlying SSD-PS (for inspection and experiments).
func (m *MemPS) Store() *ssdps.Store { return m.cfg.Store }
