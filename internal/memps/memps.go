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
// copied straight into each of those nodes' blocks. A node that assembles its
// own working set instead (PrepareInto) pulls the remotely-owned keys from
// their owners' MEM-PS over a cluster.Transport.
//
// Evicted parameters collect in a dump buffer. Once a batch completes with
// the buffer full, the whole buffer is handed to a background write that
// dumps it to the SSD-PS and then compacts the SSD-PS if needed, so no batch
// waits for an SSD write. At most one write runs at a time, started in
// eviction order. The rows it holds stay in the buffer, marked as being
// written, until they are on the SSD-PS: every lookup finds them there, and
// none modifies them. Flush and Evict wait the write out first.
package memps

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"hps/internal/cache"
	"hps/internal/cluster"
	"hps/internal/embedding"
	"hps/internal/gpu"
	"hps/internal/interconnect"
	"hps/internal/keys"
	"hps/internal/ps"
	"hps/internal/simtime"
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
	// Fabric charges network time for remote pulls; nil disables accounting.
	Fabric *interconnect.Fabric
	// Clock is the node's simulated-time clock; nil disables accounting.
	Clock *simtime.Clock
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
	// LocalPullTime / RemotePullTime are cumulative modelled times of the two
	// pull paths (Fig 4b).
	LocalPullTime, RemotePullTime time.Duration
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
	// LocalTime and RemoteTime are the modelled durations of the two pull
	// paths; they run in parallel so the batch pays max(LocalTime, RemoteTime).
	LocalTime, RemoteTime time.Duration
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
}

// MemPS is the main-memory parameter server of one node.
// It is safe for concurrent use. It implements ps.Tier: PullInto assembles an
// unpinned working set (local cache/SSD plus remote owners), PushBlock merges
// collected deltas into the owned shard, and Evict demotes parameters to the
// SSD-PS below.
type MemPS struct {
	cfg Config
	rec ps.Recorder

	mu          sync.Mutex
	cache       *cache.Combined[*embedding.Value]
	pendingDump map[keys.Key]dumpEntry // the dump buffer
	seed        int64                  // keyed-init seed: same (seed, key) -> same initial value
	stats       Stats

	// The background write. epoch is the dump buffer's current epoch: a
	// write starts by advancing it, so the rows it holds are exactly the
	// buffer entries of an older epoch. writing is set while it runs, and
	// writeDone (on mu) is signalled when it ends; writeErr is the failure
	// of the last write, returned by the next call that waits for it.
	// writeSet is the rows of the write in flight (owned by it while
	// writing, reused across writes).
	epoch     uint64
	writing   bool
	writeDone sync.Cond
	writeErr  error
	writeSet  map[keys.Key]*embedding.Value
	// spare holds up to maxSpares*DumpBatchSize values of rows a write put
	// on the SSD-PS, which nothing references any more: a miss on a row the
	// write in flight holds copies it into one of them (copyOf) instead of
	// allocating.
	spare []*embedding.Value
	// writeHook, when set, is handed every background write's SSD-PS I/O
	// (the dump and the compaction) to run. Tests use it to hold a write in
	// flight and to watch for overlapping writes.
	writeHook func(io func())

	// Scratch reused across batches (safe: every user holds m.mu throughout).
	applyOrder []int
	ownedVals  []*embedding.Value
	miss       missPass
}

// maxSpares bounds the spare values a MEM-PS keeps, in dump batches. When
// each owner pins a batch's keys for every node until the push, the next
// batch's pull copies a few hundred rows per node out of the write in
// flight. On train_local_cold (400 batches, seed 1) spares for one dump
// batch cut the process's allocations by 7%, for two by 14% and for four by
// 18%; each dump batch of spares holds 32 KiB per node at dimension 8.
const maxSpares = 2

// dumpEntry is a row of the dump buffer: a value evicted from the cache in
// the given buffer epoch. A row of an older epoch than the buffer's belongs
// to the write in flight and is read-only until the write ends.
type dumpEntry struct {
	v     *embedding.Value
	epoch uint64
}

// beingWritten reports whether the write in flight holds e. The caller must
// hold m.mu.
func (m *MemPS) beingWritten(e dumpEntry) bool { return e.epoch != m.epoch }

// missPass is the state of one batched miss resolution. A pull or push first
// probes the cache once per key, noting the misses; the cold ones are then
// loaded from the SSD-PS in a single pass, and the misses are resolved in the
// order they were noted.
type missPass struct {
	// idx are the positions (in whatever the caller iterates) that missed.
	idx []int
	// toLoad are their keys, in the same order, minus the ones whose latest
	// value still sits in the dump buffer; loaded[j] is toLoad[j]'s value from
	// the SSD-PS, nil when it holds none.
	toLoad []keys.Key
	loaded []*embedding.Value
	next   int // toLoad[:next] have been taken
}

func (p *missPass) reset() {
	p.idx, p.toLoad, p.next = p.idx[:0], p.toLoad[:0], 0
}

// take returns the value loaded for k, nil when there is none. Misses must be
// taken in the order they were noted.
func (p *missPass) take(k keys.Key) *embedding.Value {
	if p.next == len(p.toLoad) || p.toLoad[p.next] != k {
		return nil
	}
	p.next++
	return p.loaded[p.next-1]
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
		cfg:         cfg,
		pendingDump: make(map[keys.Key]dumpEntry),
		writeSet:    make(map[keys.Key]*embedding.Value),
		seed:        seed,
	}
	m.writeDone.L = &m.mu
	m.cache = cache.NewCombined[*embedding.Value](lru, lfu, func(k uint64, v *embedding.Value) {
		// Fully evicted from memory: buffer for a batched SSD dump. A row of
		// the key that the write in flight holds is an older copy; this one
		// replaces it in the buffer.
		m.pendingDump[keys.Key(k)] = dumpEntry{v, m.epoch}
	})
	return m, nil
}

// NodeID returns this MEM-PS's node id.
func (m *MemPS) NodeID() int { return m.cfg.NodeID }

// Dim returns the embedding dimension.
func (m *MemPS) Dim() int { return m.cfg.Dim }

// ownsKey reports whether this node holds the parameter shard containing k —
// as its primary, or (in a replicated deployment) as one of its backups. A
// backup both applies the deltas its primary forwards and answers reads for
// the keys it replicates, which is what makes promotion a pure membership
// change.
func (m *MemPS) ownsKey(k keys.Key) bool {
	return m.cfg.Topology.HoldsKey(k, m.cfg.NodeID)
}

// noteMiss records that position i of the pass in progress, holding key k,
// missed the cache, and queues k for the batched SSD load unless the dump
// buffer holds its latest value. Duplicate keys must be adjacent (they are
// queued once). The caller must hold m.mu.
func (m *MemPS) noteMiss(i int, k keys.Key) {
	p := &m.miss
	p.idx = append(p.idx, i)
	if _, pending := m.pendingDump[k]; pending {
		return
	}
	if n := len(p.toLoad); n == 0 || p.toLoad[n-1] != k {
		p.toLoad = append(p.toLoad, k)
	}
}

// loadMisses batch-loads the noted cold keys from the SSD-PS and returns the
// modelled read duration. The caller must hold m.mu.
func (m *MemPS) loadMisses() (time.Duration, error) {
	p := &m.miss
	if len(p.toLoad) == 0 {
		return 0, nil
	}
	var err error
	var d time.Duration
	p.loaded, d, err = m.cfg.Store.LoadInto(p.toLoad, p.loaded)
	return d, err
}

// resolveMiss returns the authoritative value of a noted miss (misses resolve
// in the order they were noted): from the pending-dump buffer, else the value
// the batched SSD load found for it, else created on first reference. The
// resolved value enters the cache. The caller must hold m.mu and have
// counted the miss.
func (m *MemPS) resolveMiss(k keys.Key, st *PullStats) *embedding.Value {
	loaded := m.miss.take(k)
	if e, ok := m.pendingDump[k]; ok {
		// Not yet on the SSD; pull it back into the cache. A row the
		// background write is reading stays where it is, and the cache gets
		// a copy of it.
		v := e.v
		if m.beingWritten(e) {
			v = m.copyOf(v)
		} else {
			delete(m.pendingDump, k)
		}
		m.cache.Put(uint64(k), v)
		return v
	}
	if loaded != nil {
		if st != nil {
			st.SSDHits++
		}
		m.cache.Put(uint64(k), loaded)
		return loaded
	}
	v := embedding.NewKeyedValue(m.cfg.Dim, m.seed, uint64(k))
	if st != nil {
		st.NewParams++
	}
	m.cache.Put(uint64(k), v)
	return v
}

// copyOf returns a private copy of v, in a spare value when there is one. The
// caller must hold m.mu.
func (m *MemPS) copyOf(v *embedding.Value) *embedding.Value {
	n := len(m.spare)
	if n == 0 {
		return v.Clone()
	}
	c := m.spare[n-1]
	m.spare = m.spare[:n-1]
	c.Freq = v.Freq
	copy(c.Weights, v.Weights)
	copy(c.G2Sum, v.G2Sum)
	return c
}

// lookupOwned returns the authoritative in-memory values of ks — sorted,
// unique and all held by this node — probing the cache once per key (a Get:
// the keys count as visited), loading the cold ones from the SSD-PS in one
// batched pass and materializing first references. out[i] belongs to ks[i]
// and stays valid while the caller holds m.mu, which it must; the next call
// reuses the slice.
func (m *MemPS) lookupOwned(ks []keys.Key) ([]*embedding.Value, time.Duration, error) {
	vals := slices.Grow(m.ownedVals[:0], len(ks))[:len(ks)]
	m.ownedVals = vals
	m.miss.reset()
	for i, k := range ks {
		v, ok := m.cache.Get(uint64(k))
		vals[i] = v
		if !ok {
			m.noteMiss(i, k)
		}
	}
	loadTime, err := m.loadMisses()
	if err != nil {
		return nil, 0, err
	}
	for _, i := range m.miss.idx {
		vals[i] = m.resolveMiss(ks[i], nil)
	}
	return vals, loadTime, nil
}

// PrepareInto assembles the working set for a batch whose referenced
// parameter keys are given (Algorithm 1 lines 3-4): the working values land
// in dst, one flat row per unique key in sorted key order, so a pipelined
// trainer reusing its blocks assembles batches without per-value allocation.
// Local parameters are pinned in the cache until CompleteBatch is called with
// the returned WorkingSet, which carries the key partition and pull
// statistics.
func (m *MemPS) PrepareInto(working []keys.Key, dst *ps.ValueBlock) (*WorkingSet, error) {
	if dst == nil {
		return nil, errors.New("memps: PrepareInto needs a destination block")
	}
	return m.assemble(working, true, dst)
}

// PrepareOwnedInto resolves a batch's keys owned by this node for every node
// of the batch at once (Algorithm 1 lines 3-4): ks is the sorted union of the
// keys each node references from this node's shard, and rows[r][x] is ks[x]'s
// row in node r's block dsts[r], -1 when node r does not reference it. Every
// key costs one cache probe, the cold ones one batched SSD-PS load, and the
// value is copied straight into each row that wants it. The call writes only
// those rows, so calls on different owners may fill the same blocks
// concurrently; the blocks must already hold their keys.
//
// Every key of ks is pinned once, however many nodes want it, until
// CompleteBatch is called with the returned working set. Its LocalKeys is ks
// itself, which the caller keeps unchanged until then. A failed call pins
// nothing. The rows count toward this node's LocalKeys; the nodes that
// received rows they do not own record them with ReceivePeerRows.
func (m *MemPS) PrepareOwnedInto(ks []keys.Key, dsts []*ps.ValueBlock, rows [][]int32) (WorkingSet, error) {
	if len(rows) != len(dsts) {
		return WorkingSet{}, fmt.Errorf("memps: %d row maps for %d blocks", len(rows), len(dsts))
	}
	for _, r := range rows {
		if len(r) != len(ks) {
			return WorkingSet{}, fmt.Errorf("memps: a row map of %d rows for %d keys", len(r), len(ks))
		}
	}
	for x, k := range ks {
		if x > 0 && k <= ks[x-1] {
			return WorkingSet{}, errors.New("memps: PrepareOwnedInto needs sorted unique keys")
		}
		if !m.ownsKey(k) {
			return WorkingSet{}, fmt.Errorf("memps: node %d asked to resolve key %d owned by node %d",
				m.cfg.NodeID, k, m.cfg.Topology.NodeOf(k))
		}
	}
	ws := WorkingSet{LocalKeys: ks}
	st := &ws.Stats
	st.LocalKeys = len(ks)
	emit := func(x int, v *embedding.Value) {
		m.cache.Pin(uint64(ks[x]))
		for r, dst := range dsts {
			if row := rows[r][x]; row >= 0 {
				dst.Set(int(row), v)
			}
		}
	}
	m.mu.Lock()
	m.miss.reset()
	for x, k := range ks {
		if v, ok := m.cache.Get(uint64(k)); ok {
			st.CacheHits++
			emit(x, v)
			continue
		}
		st.CacheMisses++
		m.noteMiss(x, k)
	}
	var err error
	if st.LocalTime, err = m.loadMisses(); err != nil {
		m.unpinHits(ks)
		m.mu.Unlock()
		return WorkingSet{}, fmt.Errorf("memps: load local parameters: %w", err)
	}
	for _, x := range m.miss.idx {
		emit(x, m.resolveMiss(ks[x], st))
	}
	m.recordPrepared(st)
	m.mu.Unlock()
	m.rec.RecordPull(len(ks), st.LocalTime)
	return ws, nil
}

// unpinHits withdraws the pins a pass over ks took for its cache hits — every
// position that is not a noted miss — after a failed SSD-PS load: a failed
// prepare must not leak pinned, unevictable entries, since CompleteBatch is
// never called for it. The caller must hold m.mu.
func (m *MemPS) unpinHits(ks []keys.Key) {
	misses := m.miss.idx
	for i, k := range ks {
		if len(misses) > 0 && misses[0] == i {
			misses = misses[1:]
			continue
		}
		m.cache.Unpin(uint64(k))
	}
}

// recordPrepared adds one working-set assembly's local-path statistics to the
// cumulative ones. The caller must hold m.mu.
func (m *MemPS) recordPrepared(st *PullStats) {
	m.stats.BatchesPrepared++
	m.stats.LocalKeys += int64(st.LocalKeys)
	m.stats.CacheHits += int64(st.CacheHits)
	m.stats.CacheMisses += int64(st.CacheMisses)
	m.stats.SSDLoads += int64(st.SSDHits)
	m.stats.NewParams += int64(st.NewParams)
	m.stats.LocalPullTime += st.LocalTime
}

// ReceivePeerRows records that n rows of this node's batch working set came
// from one peer's MEM-PS, which copied them into this node's block
// (PrepareOwnedInto), and charges their transfer to the Ethernet: the keys
// asked for and the rows sent back, the payload a pull through a
// cluster.Transport moves. It returns the modelled transfer time, which
// overlaps the node's own SSD-PS reads.
func (m *MemPS) ReceivePeerRows(n int) time.Duration {
	var d time.Duration
	if m.cfg.Fabric != nil {
		d = m.cfg.Fabric.Ethernet(int64(n) * int64(8+8+embedding.EncodedSize(m.cfg.Dim)))
	}
	m.mu.Lock()
	m.stats.RemoteKeys += int64(n)
	m.stats.RemotePulls++
	m.stats.RemotePullTime += d
	m.mu.Unlock()
	return d
}

// Name implements ps.Tier.
func (m *MemPS) Name() string { return "mem-ps" }

// TierStats implements ps.Tier.
func (m *MemPS) TierStats() ps.Stats { return m.rec.TierStats() }

// PullInto implements ps.Tier: it assembles current values for an arbitrary
// key set — local keys from the cache, the dump buffer or the SSD-PS (created
// on first reference), remote keys from their owning nodes — into dst, in
// request-key order, without pinning anything. Training batches use
// PrepareInto instead, which additionally pins. The assembly runs over the
// request's sorted unique key set (hot-path requests already are one); any
// other request is gathered back into request order from it, because rows
// bound positionally to the request (the wire protocol) must never come back
// reordered.
func (m *MemPS) PullInto(req ps.PullRequest, dst *ps.ValueBlock) error {
	if dst == nil {
		return errors.New("memps: PullInto needs a destination block")
	}
	if keys.SortedUnique(req.Keys) {
		_, err := m.assemble(req.Keys, false, dst)
		return err
	}
	set := ps.GetBlock(m.cfg.Dim, nil)
	defer ps.PutBlock(set)
	if _, err := m.assemble(keys.Dedup(slices.Clone(req.Keys)), false, set); err != nil {
		return err
	}
	dst.Reset(m.cfg.Dim, nil)
	dst.Grow(len(req.Keys))
	for _, k := range req.Keys {
		i, _ := set.Row(k)
		dst.AppendRow(k, set.WeightsRow(i), set.G2Row(i), set.Freq[i])
	}
	return nil
}

// PushBlock implements ps.Tier: it merges the block's delta rows (weight and
// optimizer-state deltas and reference-count increments, accumulated by the
// HBM-PS across all GPUs and nodes) into the authoritative copies of the
// parameters this node owns. Rows for other nodes' parameters are ignored —
// their owners apply them. Rows apply in sorted key order; duplicate keys
// accumulate.
func (m *MemPS) PushBlock(req ps.PushBlockRequest) error {
	return m.applyBlock(req.Block)
}

// assemble is the batched-pull path behind PrepareInto and PullInto: the
// values are copied into dst's flat rows, in sorted unique-key order.
func (m *MemPS) assemble(working []keys.Key, pin bool, dst *ps.ValueBlock) (*WorkingSet, error) {
	// A batch's key union arrives already sorted and unique (batch.Keys went
	// through Dedup upstream); only copy-and-sort arbitrary requests.
	if !keys.SortedUnique(working) {
		working = keys.Dedup(append([]keys.Key(nil), working...))
	}
	ws := &WorkingSet{}
	dst.Reset(m.cfg.Dim, working)

	// localRows[i] is local[i]'s row in working (and so in dst): the partition
	// already knows it, so nothing downstream searches for it.
	var local, remote []keys.Key
	var localRows []int32
	for row, k := range working {
		if m.ownsKey(k) {
			local = append(local, k)
			localRows = append(localRows, int32(row))
		} else {
			remote = append(remote, k)
		}
	}
	ws.LocalKeys = local
	ws.RemoteKeys = remote
	ws.Stats.LocalKeys = len(local)
	ws.Stats.RemoteKeys = len(remote)

	// Remote pulls go out first (they overlap the local SSD reads in the real
	// system; here we issue them concurrently and take both durations). Each
	// peer's partition arrives as a flat sub-block (one frame, no per-value
	// decoding) and is scattered into dst's rows.
	type remoteResult struct {
		sub   *ps.ValueBlock
		bytes int64
		err   error
	}
	remoteByNode := m.cfg.Topology.SplitByNode(remote)
	resultCh := make(chan remoteResult, m.cfg.Topology.Nodes)
	inFlight := 0
	for nodeID, ks := range remoteByNode {
		if nodeID == m.cfg.NodeID || len(ks) == 0 {
			continue
		}
		inFlight++
		go func(nodeID int, ks []keys.Key) {
			sub := ps.GetBlock(m.cfg.Dim, ks)
			bytes, err := m.cfg.Transport.PullBlock(nodeID, ks, sub)
			resultCh <- remoteResult{sub: sub, bytes: bytes, err: err}
		}(nodeID, ks)
	}

	// Local path: cache, pending dumps, SSD. One cache lookup per key: hits
	// are emitted on the spot, misses are collected and resolved after the
	// (single, batched) SSD load — the steady hot-pull case touches the cache
	// exactly once per key.
	emit := func(i int, v *embedding.Value) {
		k := local[i]
		if pin {
			m.cache.Pin(uint64(k))
		}
		dst.Set(int(localRows[i]), v)
	}
	m.mu.Lock()
	m.miss.reset()
	for i, k := range local {
		if v, ok := m.cache.Get(uint64(k)); ok {
			ws.Stats.CacheHits++
			emit(i, v)
			continue
		}
		ws.Stats.CacheMisses++
		m.noteMiss(i, k)
	}
	var err error
	if ws.Stats.LocalTime, err = m.loadMisses(); err != nil {
		if pin {
			m.unpinHits(local)
		}
		m.mu.Unlock()
		return nil, fmt.Errorf("memps: load local parameters: %w", err)
	}
	for _, i := range m.miss.idx {
		emit(i, m.resolveMiss(local[i], &ws.Stats))
	}
	m.recordPrepared(&ws.Stats)
	m.stats.RemoteKeys += int64(len(remote))
	m.mu.Unlock()

	// Collect remote results.
	var firstErr error
	for i := 0; i < inFlight; i++ {
		r := <-resultCh
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			ps.PutBlock(r.sub)
			continue
		}
		var d time.Duration
		if m.cfg.Fabric != nil {
			d = m.cfg.Fabric.Ethernet(r.bytes)
		}
		ws.Stats.RemoteTime += d
		m.mu.Lock()
		m.stats.RemotePulls++
		m.stats.RemotePullTime += d
		m.mu.Unlock()
		dst.ScatterRows(r.sub) // drops rows the peer was never asked for
		ps.PutBlock(r.sub)
	}
	if firstErr != nil {
		if pin {
			// Same invariant as the SSD-load failure above: a failed PrepareInto
			// must not leak pins — by now every local key has been pinned.
			m.mu.Lock()
			for _, k := range local {
				m.cache.Unpin(uint64(k))
			}
			m.mu.Unlock()
		}
		return nil, fmt.Errorf("memps: remote pull: %w", firstErr)
	}
	// Any remote key the owner failed to return (should not happen) gets a
	// fresh value so training can proceed. Every local row has been emitted
	// by now, so a row still absent is such a key.
	for i, k := range dst.Keys {
		if !dst.Present[i] {
			dst.Set(i, embedding.NewKeyedValue(m.cfg.Dim, m.seed, uint64(k)))
		}
	}
	// The local and remote paths overlap, so the batch pays the slower one.
	pullTime := ws.Stats.LocalTime
	if ws.Stats.RemoteTime > pullTime {
		pullTime = ws.Stats.RemoteTime
	}
	// Only the locally-served keys count toward this tier instance's uniform
	// statistics: the remote keys are recorded by the MEM-PS that serves
	// them (HandlePullBlock), so cluster-wide aggregates count each key once.
	m.rec.RecordPull(len(local), pullTime)
	return ws, nil
}

// servePull is the shared serving prologue of every pull-RPC handler: it
// verifies ownership of ks, resolves each key to its authoritative value
// (batch-loading the cold parameters from the SSD-PS, materializing first
// references) under m.mu, and hands them to emit in request order. Served
// parameters enter the cache (they are now "recently used") but are not
// pinned. The returned duration is the SSD load time; the caller records the
// serve in the tier statistics.
func (m *MemPS) servePull(ks []keys.Key, emit func(i int, k keys.Key, v *embedding.Value)) (time.Duration, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, k := range ks {
		if !m.ownsKey(k) {
			return 0, fmt.Errorf("memps: node %d asked for key %d owned by node %d",
				m.cfg.NodeID, k, m.cfg.Topology.NodeOf(k))
		}
	}
	// Peers and drivers ask for sorted key sets; an arbitrary request is
	// served through its sorted key set and emitted by search.
	sorted := keys.SortedUnique(ks)
	served := ks
	if !sorted {
		served = keys.Dedup(slices.Clone(ks))
	}
	vals, loadTime, err := m.lookupOwned(served)
	if err != nil {
		return 0, fmt.Errorf("memps: handle pull: %w", err)
	}
	for i, k := range ks {
		j := i
		if !sorted {
			j, _ = slices.BinarySearch(served, k)
		}
		emit(i, k, vals[j])
	}
	return loadTime, nil
}

// HandleLookupBlock implements cluster.LookupHandler: it reads the current
// values of the requested locally-owned keys into dst without materializing
// missing ones — the evaluation and serving contract, where a never-trained
// feature must stay absent rather than spring into existence with random
// weights. Keys the ring does not assign to this node read as absent.
func (m *MemPS) HandleLookupBlock(ks []keys.Key, dst *ps.ValueBlock) error {
	_, err := m.readInto(ks, dst, true)
	return err
}

// readInto is the MEM-PS's one no-create read: it fills dst with the current
// values of ks in request-key order and returns how many rows are present.
// Cache and dump-buffer hits are copied under the lock; the remaining keys
// are on the SSD-PS — a row leaves the dump buffer only once it is written
// there — and come back in one positional load outside it. With owned set,
// keys this node does not hold under the ring read as absent; without it,
// whatever the shard holds is read (state export).
func (m *MemPS) readInto(ks []keys.Key, dst *ps.ValueBlock, owned bool) (int, error) {
	dst.Reset(m.cfg.Dim, ks)
	var onSSD []int // positions in ks
	n := 0
	m.mu.Lock()
	for i, k := range ks {
		if owned && !m.ownsKey(k) {
			continue
		}
		if v, ok := m.cache.Get(uint64(k)); ok {
			dst.Set(i, v)
			n++
		} else if e, ok := m.pendingDump[k]; ok {
			dst.Set(i, e.v)
			n++
		} else {
			onSSD = append(onSSD, i)
		}
	}
	m.mu.Unlock()
	if len(onSSD) == 0 {
		return n, nil
	}
	toLoad := make([]keys.Key, len(onSSD))
	for j, i := range onSSD {
		toLoad[j] = ks[i]
	}
	vals, _, err := m.cfg.Store.LoadInto(toLoad, nil)
	if err != nil {
		return 0, fmt.Errorf("memps: read parameters: %w", err)
	}
	for j, v := range vals {
		if v != nil {
			dst.Set(onSSD[j], v)
			n++
		}
	}
	return n, nil
}

// applyBlock merges the owned rows of a flat delta block into the
// authoritative copies in sorted key order, loading cold parameters from the
// SSD-PS in one batched pass first. The selection and miss scratch lives on
// the MemPS (it runs under m.mu), and each row costs
// exactly one cache probe: hits merge on the spot, misses defer to the
// batched load — in the steady hot-push state the whole apply allocates
// nothing.
func (m *MemPS) applyBlock(blk *ps.ValueBlock) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	order := m.applyOrder[:0]
	sorted := true
	var prev keys.Key
	ks, present := blk.Keys, blk.Present
	for i, k := range ks {
		if present[i] && m.ownsKey(k) {
			if len(order) > 0 && k < prev {
				sorted = false
			}
			prev = k
			order = append(order, i)
		}
	}
	if !sorted {
		// Push blocks arrive in sorted key order (the merged working set is
		// sorted); only an arbitrary caller pays for the sort.
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(blk.Keys[a], blk.Keys[b]) })
	}
	m.applyOrder = order
	m.miss.reset()
	for _, i := range order {
		// GetApply: a write-path read — the pull that assembled this working
		// set already refreshed recency and visit counts for these keys.
		if v, ok := m.cache.GetApply(uint64(ks[i])); ok {
			v.AddFlat(blk.WeightsRow(i), blk.G2Row(i), blk.Freq[i])
			continue
		}
		m.noteMiss(i, ks[i]) // order is sorted here, so duplicate keys are adjacent
	}
	loadTime, err := m.loadMisses()
	if err != nil {
		return fmt.Errorf("memps: apply updates: %w", err)
	}
	m.stats.PushMisses += int64(len(m.miss.idx))
	var v *embedding.Value
	for n, i := range m.miss.idx {
		// A duplicate of the previous miss was resolved with it.
		if n == 0 || ks[i] != ks[m.miss.idx[n-1]] {
			v = m.resolveMiss(ks[i], nil)
		}
		v.AddFlat(blk.WeightsRow(i), blk.G2Row(i), blk.Freq[i])
	}
	m.rec.RecordPush(len(order), loadTime)
	return nil
}

// PushBlockPair applies a pre-merged pair of delta blocks to the owned
// shard — the in-process push path for two-node topologies. mk lists the
// merged keys this shard owns (sorted, unique — the caller partitioned the
// key-wise merge of a and b by owner); sa[x] and sb[x] are key mk[x]'s row
// in a and b, -1 when that node did not touch it. It is equivalent to
// merging the blocks into a global block and applying it through PushBlock,
// without materializing the merged slabs: a key both nodes updated simply
// applies both source rows to the same value (the floating-point rounding
// can differ from the summed-first order by an ulp; both orders are
// deterministic). Ownership of mk is the caller's contract and is not
// re-checked.
func (m *MemPS) PushBlockPair(a, b *ps.ValueBlock, mk []keys.Key, sa, sb []int32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.miss.reset()
	for x, k := range mk {
		// GetApply: a write-path read — see applyBlock.
		if v, ok := m.cache.GetApply(uint64(k)); ok {
			addPair(v, a, b, sa[x], sb[x])
			continue
		}
		m.noteMiss(x, k)
	}
	loadTime, err := m.loadMisses()
	if err != nil {
		return fmt.Errorf("memps: apply updates: %w", err)
	}
	m.stats.PushMisses += int64(len(m.miss.idx))
	for _, x := range m.miss.idx {
		addPair(m.resolveMiss(mk[x], nil), a, b, sa[x], sb[x])
	}
	m.rec.RecordPush(len(mk), loadTime)
	return nil
}

// addPair adds row ai of a and row bi of b into v; a negative row is absent.
func addPair(v *embedding.Value, a, b *ps.ValueBlock, ai, bi int32) {
	if ai >= 0 {
		v.AddFlat(a.WeightsRow(int(ai)), a.G2Row(int(ai)), a.Freq[ai])
	}
	if bi >= 0 {
		v.AddFlat(b.WeightsRow(int(bi)), b.G2Row(int(bi)), b.Freq[bi])
	}
}

// HandlePullBlock implements cluster.PullHandler: it serves parameter pulls
// from other nodes (or a multi-process driver) for the shard this node owns,
// materializing first references, with the values written straight into
// dst's flat rows in request-key order.
func (m *MemPS) HandlePullBlock(ks []keys.Key, dst *ps.ValueBlock) error {
	dst.Reset(m.cfg.Dim, ks)
	loadTime, err := m.servePull(ks, func(i int, _ keys.Key, v *embedding.Value) {
		dst.Set(i, v)
	})
	if err != nil {
		return err
	}
	m.rec.RecordPull(len(ks), loadTime)
	return nil
}

// HandlePullBlockWire implements cluster.BlockPullWireHandler —
// HandlePullBlock's contract with the reply encoded straight into the
// outgoing frame: each served value's rows are copied (or quantized, when the
// connection negotiated a reduced precision) exactly once, from the cache's
// own storage into dst's wire bytes, under the MEM-PS lock. Hot keys (the
// steady state, where the cache holds the whole working set) therefore cross
// neither an intermediate embedding.Value nor an intermediate ValueBlock on
// their way to the socket.
func (m *MemPS) HandlePullBlockWire(ks []keys.Key, dst []byte, prec ps.Precision) ([]byte, error) {
	out := ps.AppendWireHeaderPrecision(dst, m.cfg.Dim, len(ks), prec)
	loadTime, err := m.servePull(ks, func(_ int, _ keys.Key, v *embedding.Value) {
		out = ps.AppendWireRowPrecision(out, true, v.Freq, v.Weights, v.G2Sum, prec)
	})
	if err != nil {
		return out, err // the caller discards the content, not the buffer
	}
	m.rec.RecordPull(len(ks), loadTime)
	return out, nil
}

// HandlePushBlock implements cluster.BlockPushHandler: it merges a delta
// block pushed by a remote driver or peer node into the shard this node
// owns, exactly like PushBlock. A remote shard never sees CompleteBatch, so
// the push — which arrives once per training batch — also runs the
// batch-completion housekeeping (Maintain): a full eviction buffer is handed
// to the background write, and the reply does not wait for it.
func (m *MemPS) HandlePushBlock(blk *ps.ValueBlock) error {
	if err := m.applyBlock(blk); err != nil {
		return err
	}
	return m.Maintain()
}

// Evict implements ps.Tier: it demotes the given locally-owned, unpinned
// parameters from the memory cache to the SSD-PS, flushing the dump buffer
// along the way. A nil slice demotes everything (equivalent to Flush). It
// returns how many parameters left main memory for the SSD. It first waits
// out the background write in flight and returns that write's error, if it
// failed, without evicting anything.
func (m *MemPS) Evict(ks []keys.Key) (int, error) {
	if ks == nil {
		return m.flushAll()
	}
	// The dump runs under m.mu: once keys leave the cache and the dump
	// buffer they are unreachable until the SSD write completes, and a
	// concurrent lookup in that window would silently re-initialize a
	// trained parameter.
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.waitWrite(); err != nil {
		return 0, err
	}
	moved := 0
	for _, k := range ks {
		if !m.ownsKey(k) || m.cache.Pinned(uint64(k)) {
			continue
		}
		if v, ok := m.cache.Remove(uint64(k)); ok {
			m.pendingDump[k] = dumpEntry{v, m.epoch}
			moved++
		} else if _, pending := m.pendingDump[k]; pending {
			moved++ // already demoted out of the cache; flushed below
		}
	}
	if _, err := m.dumpBuffer(); err != nil {
		return 0, fmt.Errorf("memps: evict: %w", err)
	}
	m.rec.RecordEvict(moved)
	return moved, nil
}

// dumpBuffer writes the whole dump buffer to the SSD-PS now and empties it,
// returning how many rows were written; no background write may be in
// flight. A failed dump leaves the buffer as it was: outside the cache its
// rows are the only copies, so they stay reachable by lookups and are
// retried by the next dump. The caller must hold m.mu throughout.
func (m *MemPS) dumpBuffer() (int, error) {
	if len(m.pendingDump) == 0 {
		return 0, nil
	}
	all := make(map[keys.Key]*embedding.Value, len(m.pendingDump))
	for k, e := range m.pendingDump {
		all[k] = e.v
	}
	if err := m.cfg.Store.Dump(all); err != nil {
		return 0, err
	}
	m.pendingDump = make(map[keys.Key]dumpEntry)
	m.stats.Dumped += int64(len(all))
	return len(all), nil
}

// CompleteBatch unpins the batch's locally-owned working parameters and runs
// the batch-completion housekeeping (Maintain): a full dump buffer goes to
// the SSD-PS, and the SSD-PS is compacted when its disk usage exceeds the
// threshold (Algorithm 1 lines 17-18), both in the background.
func (m *MemPS) CompleteBatch(ws *WorkingSet) error {
	if ws == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, k := range ws.LocalKeys {
		m.cache.Unpin(uint64(k))
	}
	return m.maintain()
}

// Maintain runs the batch-completion housekeeping without a working set.
// It waits out the background write in flight, if any, and returns its
// error if it failed. Otherwise, once the dump buffer is full, it starts the
// next write — dump the buffer to the SSD-PS, then compact the SSD-PS if its
// disk usage exceeds the threshold — and returns without waiting for it.
// CompleteBatch calls it after unpinning; shard servers call it from the push
// RPC, which arrives once per training batch.
func (m *MemPS) Maintain() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.maintain()
}

// maintain is Maintain for a caller holding m.mu.
func (m *MemPS) maintain() error {
	if err := m.waitWrite(); err != nil {
		return err
	}
	if len(m.pendingDump) < m.cfg.DumpBatchSize {
		return nil
	}
	// The rows stay in the buffer, now of an older epoch than it: lookups
	// keep finding them, and the next eviction of one of their keys
	// replaces the row instead of touching what the write reads.
	for k, e := range m.pendingDump {
		m.writeSet[k] = e.v
	}
	m.epoch++
	m.writing = true
	go m.write(m.cfg.Store, m.writeSet)
	return nil
}

// waitWrite waits until no background write is in flight, then returns and
// clears the last write's error. The caller must hold m.mu, which is released
// while waiting.
func (m *MemPS) waitWrite() error {
	for m.writing {
		m.writeDone.Wait()
	}
	err := m.writeErr
	m.writeErr = nil
	return err
}

// write is the background write: it dumps rows to store, compacts the store
// if its disk usage crossed the threshold, and then settles the rows in the
// dump buffer. A row the buffer still holds for the write leaves it once it
// is on the SSD. If the dump failed, it stays for the next write — unless
// the cache holds a newer copy of its key, which supersedes it.
func (m *MemPS) write(store *ssdps.Store, rows map[keys.Key]*embedding.Value) {
	var err, dumpErr error
	io := func() {
		if dumpErr = store.Dump(rows); dumpErr != nil {
			err = fmt.Errorf("memps: dump evicted parameters: %w", dumpErr)
		} else if _, cerr := store.CompactIfNeeded(); cerr != nil {
			err = fmt.Errorf("memps: compaction: %w", cerr)
		}
	}
	if m.writeHook != nil {
		m.writeHook(io)
	} else {
		io()
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range rows {
		e, ok := m.pendingDump[k]
		switch {
		case !ok || !m.beingWritten(e):
			// A newer copy replaced the row.
		case dumpErr == nil || m.cache.Contains(uint64(k)):
			delete(m.pendingDump, k)
		default:
			m.pendingDump[k] = dumpEntry{e.v, m.epoch}
		}
	}
	if dumpErr == nil {
		m.stats.Dumped += int64(len(rows))
		// Every row is on the SSD-PS now, and the buffer, the cache (which
		// got copies) and the store hold none of them: keep some as spares.
		for _, v := range rows {
			if len(m.spare) == maxSpares*m.cfg.DumpBatchSize {
				break
			}
			m.spare = append(m.spare, v)
		}
	}
	clear(rows)
	m.writeErr = err
	m.writing = false
	m.writeDone.Broadcast()
}

// Flush writes every cached parameter and every pending eviction to the
// SSD-PS and fsyncs it, so the state it wrote survives a power loss. It waits
// out the background write in flight first and returns that write's error,
// if it failed, without flushing. It is called at the end of training and
// for every checkpoint.
func (m *MemPS) Flush() error {
	_, err := m.flushAll()
	return err
}

// flushAll demotes the entire in-memory state (cache and dump buffer) to the
// SSD-PS and syncs it, returning how many parameters were written. The dump
// runs under m.mu so the parameters stay reachable throughout (see Evict);
// the sync, which covers the background writes before it too, does not.
func (m *MemPS) flushAll() (int, error) {
	m.mu.Lock()
	if err := m.waitWrite(); err != nil {
		m.mu.Unlock()
		return 0, err
	}
	// Drain the cache into the dump buffer, so a failed dump leaves every
	// row there.
	m.cache.Flush(func(k uint64, v *embedding.Value) {
		m.pendingDump[keys.Key(k)] = dumpEntry{v, m.epoch}
	})
	n, err := m.dumpBuffer()
	if n > 0 {
		m.rec.RecordEvict(n)
	}
	store := m.cfg.Store
	m.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("memps: flush: %w", err)
	}
	if err := store.Sync(); err != nil {
		return 0, fmt.Errorf("memps: flush: %w", err)
	}
	return n, nil
}

// Lookup returns a copy of the current authoritative value of a locally-owned
// key, or nil if the node does not own it, has never seen it or cannot read
// it. It is used by evaluation code, not by the training path.
func (m *MemPS) Lookup(k keys.Key) *embedding.Value {
	blk := ps.GetBlock(m.cfg.Dim, nil)
	defer ps.PutBlock(blk)
	if _, err := m.readInto([]keys.Key{k}, blk, true); err != nil {
		return nil
	}
	return blk.Value(0)
}

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
	m.cache.Range(func(k uint64, _ *embedding.Value) bool {
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
