package memps

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hps/internal/cluster"
	"hps/internal/keys"
	"hps/internal/ps"
)

// This file is the replication half of the MEM-PS: what a shard does beyond
// serving its own partition so that another shard can take over for it.
//
//   - A primary that applies a push forwards the applied delta rows to each
//     key's backups (Replicator.Forward), asynchronously and stamped with the
//     ORIGIN client's (client, seq) — the backup commits the stamp to its own
//     dedup tracker, so after a promotion the origin's retry of the same push
//     is acknowledged as a duplicate instead of double-applied.
//   - On a membership change, the shard re-replicates: for every key it
//     holds, if it is the designated sender under the new ring it streams the
//     key's current value to the members that just entered the key's replica
//     set (Replicator.Reconcile), in rate-limited chunks over the transfer op.
//   - ImportBlock / ExportInto / LocalKeys are the state-transfer primitives
//     those chunks are built from.

// Topology returns the cluster topology this MEM-PS places keys with.
func (m *MemPS) Topology() cluster.Topology { return m.cfg.Topology }

// LocalKeys returns every key this shard currently holds a value for, across
// the cache, the dump buffer (rows being written included) and the SSD-PS,
// deduplicated. It is the enumeration step of re-replication; the set may
// include keys the current ring no longer assigns to this node (stale
// leftovers are harmless — they are neither served nor applied).
func (m *MemPS) LocalKeys() []keys.Key {
	m.mu.Lock()
	ks := make([]keys.Key, 0, m.cache.Len()+m.dumped.Len())
	m.cache.Range(func(k uint64, _ int32) bool {
		ks = append(ks, keys.Key(k))
		return true
	})
	m.dumped.Range(func(k keys.Key, _ dumpRow) bool {
		ks = append(ks, k)
		return true
	})
	m.mu.Unlock()
	ks = append(ks, m.cfg.Store.Keys()...)
	return keys.Dedup(ks)
}

// ExportInto fills dst with this shard's current values for ks (request-key
// order; keys this shard does not hold stay absent) and returns how many rows
// are present. It is the read side of a key-range state transfer. Unlike
// HandleLookupBlock it does NOT apply the ownership filter: a leaving shard
// exports rows the new ring no longer assigns to it — holding a value is what
// matters here, not owning the key. An error means a row on the SSD-PS could
// not be read.
func (m *MemPS) ExportInto(ks []keys.Key, dst *ps.ValueBlock) (int, error) {
	return m.readInto(ks, dst, false)
}

// ImportBlock installs the block's rows as full values (set semantics, not
// delta merge) and returns how many were accepted. Rows for keys this shard
// already holds anywhere — cache, dump buffer or SSD — are skipped: a state
// transfer fills holes, while live replication keeps existing rows current.
// Accepting an older snapshot over a row a replicated delta already advanced
// would silently roll that delta back; skipping makes transfers idempotent
// and safely reorderable against the replication stream.
//
// Ownership under this shard's ring is deliberately not checked. A membership
// change reaches the members one after another and each starts its reconcile
// pass at once, so a sender's transfer routinely arrives before the receiver
// has installed the ring that assigns it the rows; dropping them then loses
// the only copy that will ever be sent. A row the ring never assigns to this
// shard is a leftover like any other (see LocalKeys): held, never served.
func (m *MemPS) ImportBlock(blk *ps.ValueBlock) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	accepted := 0
	for i, k := range blk.Keys {
		if !blk.Present[i] {
			continue
		}
		if m.cache.Contains(uint64(k)) || m.dumped.Has(k) || m.cfg.Store.Contains(k) {
			continue
		}
		slot := m.alloc(k)
		m.rows.CopyRow(int(slot), blk, i)
		m.cache.Put(uint64(k), slot)
		accepted++
	}
	m.stats.Imported += int64(accepted)
	return accepted
}

// HandleReplicate applies a delta block forwarded by a key's primary. The
// apply path is the same ownership-filtered merge as a direct push — ownership
// spans the whole replica set, so the backup rows land; the dedup stamp was
// already committed by the server dispatch.
func (m *MemPS) HandleReplicate(blk *ps.ValueBlock) error {
	if err := m.applyBlock(nil, blk); err != nil {
		return err
	}
	return m.Maintain()
}

// HandleTransfer installs a key-range state transfer (see ImportBlock).
func (m *MemPS) HandleTransfer(blk *ps.ValueBlock) (int, error) {
	n := m.ImportBlock(blk)
	return n, m.Maintain()
}

// ReplicateTransport is what the Replicator needs from the cluster transport:
// the replicate op (delta forwarding, origin-stamped) and the transfer op
// (full-value key-range copy). TCPTransport implements both.
type ReplicateTransport interface {
	Replicate(nodeID int, client, seq uint64, blk *ps.ValueBlock) (int64, error)
	Transfer(nodeID int, blk *ps.ValueBlock) (int, error)
}

// ReplicationStats is a snapshot of the Replicator's counters.
type ReplicationStats struct {
	// Forwarded / ForwardedKeys count replicate RPCs (and their present rows)
	// successfully delivered to backups.
	Forwarded     int64
	ForwardedKeys int64
	// Pending is the current replication lag: forwarded blocks accepted from
	// the apply path but not yet delivered. MaxPending is its high-water mark.
	Pending    int64
	MaxPending int64
	// Errors counts forwards and transfers dropped after the transport gave
	// up retrying, and transfer chunks whose rows could not be read off the
	// SSD-PS. Dropped forwards are healed by the next reconcile; until then
	// the backup is stale within the lag window.
	Errors int64
	// Transferred / TransferredKeys count re-replication transfer RPCs (and
	// accepted rows) this shard sent as a reconcile sender.
	Transferred     int64
	TransferredKeys int64
}

// ReplicatorConfig sizes the Replicator. Zero values pick the defaults.
type ReplicatorConfig struct {
	// QueueDepth bounds the forward queue (default 256 blocks). When the
	// queue is full the apply path blocks — backpressure is what keeps the
	// replication lag window bounded instead of unbounded memory growth.
	QueueDepth int
	// TransferChunk is the number of keys per transfer RPC during reconcile
	// (default 512).
	TransferChunk int
	// TransferPause is the pause between transfer chunks (default 2ms), rate-
	// limiting re-replication so it does not starve foreground traffic.
	TransferPause time.Duration
}

// Replicator drives both replication data paths of one shard: the async
// forwarding queue of applied delta blocks (primary -> backup, hot path) and
// the rate-limited key-range transfers of a membership reconcile (background).
// One drain goroutine serializes forwards, preserving per-backup apply order.
type Replicator struct {
	mem   *MemPS
	tr    ReplicateTransport
	queue chan replJob
	done  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once

	chunk int
	pause time.Duration

	pending         atomic.Int64
	maxPending      atomic.Int64
	forwarded       atomic.Int64
	forwardedKeys   atomic.Int64
	errors          atomic.Int64
	transferred     atomic.Int64
	transferredKeys atomic.Int64
}

// replJob is one queued forward: a privately owned sub-block of applied delta
// rows bound for one backup, under the origin client's dedup stamp.
type replJob struct {
	node        int
	client, seq uint64
	blk         *ps.ValueBlock
}

// NewReplicator starts a replicator for mem forwarding over tr.
func NewReplicator(mem *MemPS, tr ReplicateTransport, cfg ReplicatorConfig) *Replicator {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.TransferChunk <= 0 {
		cfg.TransferChunk = 512
	}
	if cfg.TransferPause == 0 {
		cfg.TransferPause = 2 * time.Millisecond
	}
	r := &Replicator{
		mem:   mem,
		tr:    tr,
		queue: make(chan replJob, cfg.QueueDepth),
		done:  make(chan struct{}),
		chunk: cfg.TransferChunk,
		pause: cfg.TransferPause,
	}
	r.wg.Add(1)
	go r.run()
	return r
}

// Forward partitions an applied delta block's present rows by replica peer
// and enqueues one privately cloned sub-block per peer, stamped with the
// origin client's (client, seq). It must be called after the local apply
// succeeded and before the stamp could be retired. A row is forwarded to
// every OTHER member of its key's replica set this node belongs to: a primary
// feeds its backups, and a backup that applied a failover push feeds its
// (possibly recovering) primary. Rows whose replica set does not include this
// node were not applied locally and are not forwarded.
func (r *Replicator) Forward(client, seq uint64, blk *ps.ValueBlock) {
	topo := r.mem.cfg.Topology
	if topo.Replicas < 2 {
		return
	}
	ring := topo.Ring()
	self := r.mem.cfg.NodeID
	var subs map[int]*ps.ValueBlock
	addRow := func(node, i int) {
		if node < 0 || node == self {
			return
		}
		if subs == nil {
			subs = make(map[int]*ps.ValueBlock, 2)
		}
		sub := subs[node]
		if sub == nil {
			sub = ps.GetBlock(blk.Dim, nil)
			subs[node] = sub
		}
		sub.AppendRow(blk.Keys[i], blk.WeightsRow(i), blk.G2Row(i), blk.Freq[i])
	}
	for i, k := range blk.Keys {
		if !blk.Present[i] {
			continue
		}
		if topo.Replicas == 2 {
			// Allocation-free fast path for the deployed R: the peer is the
			// backup when this node is the primary, the primary otherwise.
			owner := ring.Owner(k)
			switch {
			case owner == self:
				addRow(ring.Backup(k), i)
			case ring.Backup(k) == self:
				addRow(owner, i)
			}
			continue
		}
		reps := ring.Replicas(k, topo.Replicas)
		if !slices.Contains(reps, self) {
			continue
		}
		for _, node := range reps {
			addRow(node, i)
		}
	}
	for node, sub := range subs {
		r.enqueue(replJob{node: node, client: client, seq: seq, blk: sub})
	}
}

// enqueue hands a job to the drain goroutine, blocking when the queue is full
// (bounded lag) and recycling the block if the replicator is closed.
func (r *Replicator) enqueue(j replJob) {
	p := r.pending.Add(1)
	for {
		hw := r.maxPending.Load()
		if p <= hw || r.maxPending.CompareAndSwap(hw, p) {
			break
		}
	}
	select {
	case r.queue <- j:
	case <-r.done:
		r.pending.Add(-1)
		ps.PutBlock(j.blk)
	}
}

// run drains the forward queue; on Close it finishes whatever is queued (a
// graceful shard removal flushes its backups) and exits.
func (r *Replicator) run() {
	defer r.wg.Done()
	for {
		select {
		case j := <-r.queue:
			r.send(j)
		case <-r.done:
			for {
				select {
				case j := <-r.queue:
					r.send(j)
				default:
					return
				}
			}
		}
	}
}

func (r *Replicator) send(j replJob) {
	defer r.pending.Add(-1)
	defer ps.PutBlock(j.blk)
	if _, err := r.tr.Replicate(j.node, j.client, j.seq, j.blk); err != nil {
		// The transport already retried; drop the block and count it. The
		// backup stays stale within the lag window until the next reconcile.
		r.errors.Add(1)
		return
	}
	r.forwarded.Add(1)
	r.forwardedKeys.Add(int64(len(j.blk.Keys)))
}

// Reconcile re-replicates after a membership change from oldRing to newRing:
// for every key this shard holds, if this shard is the designated sender —
// the first member of the key's NEW replica set that was also in its OLD one,
// so exactly one surviving holder sends — it transfers the key's current
// value to each member that just entered the replica set. Transfers go in
// rate-limited chunks; a nil oldRing (cold start) makes the primary the
// sender for everything. A shard absent from newRing instead hands off every
// row it holds (graceful leave — with R=1 nobody else could send them). It
// returns accepted row counts per destination.
func (r *Replicator) Reconcile(oldRing, newRing *cluster.Ring) map[int]int {
	topo := r.mem.cfg.Topology
	rf := topo.Replicas
	if rf < 1 {
		rf = 1
	}
	self := r.mem.cfg.NodeID
	if newRing == nil {
		return nil
	}
	if oldRing != nil && slices.Equal(oldRing.Members(), newRing.Members()) {
		// Equal member sets place every key alike: nothing moves. Every run
		// re-sends its ring (the first address book, a restarted shard), so
		// this skips a scan of every held key under the MEM-PS lock.
		return nil
	}
	// A shard absent from the new ring is gracefully leaving: the sender rule
	// below would never pick it — but with R=1 it is the ONLY holder of its
	// rows — so it hands off everything it holds to the new replica sets
	// itself. Under R>=2 the surviving holders run the same transfers; the
	// duplicates are harmless (transfers are idempotent set-semantics).
	leaving := !newRing.Contains(self)
	plan := map[int][]keys.Key{}
	for _, k := range r.mem.LocalKeys() {
		newReps := newRing.Replicas(k, rf)
		var oldReps []int
		if oldRing != nil {
			oldReps = oldRing.Replicas(k, rf)
		}
		if !leaving {
			// Exactly one surviving holder sends: the first member of the
			// key's new replica set that was also in its old one.
			sender := -1
			for _, n := range newReps {
				if oldRing == nil || slices.Contains(oldReps, n) {
					sender = n
					break
				}
			}
			if sender != self {
				continue
			}
		} else if oldRing != nil && !slices.Contains(oldReps, self) {
			continue // stale leftover the old ring never assigned to this shard
		}
		for _, n := range newReps {
			if n != self && !slices.Contains(oldReps, n) {
				plan[n] = append(plan[n], k)
			}
		}
	}
	moved := make(map[int]int, len(plan))
	blk := ps.GetBlock(r.mem.Dim(), nil)
	defer ps.PutBlock(blk)
	for node, ks := range plan {
		for off := 0; off < len(ks); off += r.chunk {
			end := min(off+r.chunk, len(ks))
			n, err := r.mem.ExportInto(ks[off:end], blk)
			if err != nil {
				r.errors.Add(1)
				continue
			}
			if n == 0 {
				continue
			}
			acc, err := r.tr.Transfer(node, blk)
			if err != nil {
				r.errors.Add(1)
				continue
			}
			moved[node] += acc
			r.transferred.Add(1)
			r.transferredKeys.Add(int64(acc))
			if r.pause > 0 {
				time.Sleep(r.pause)
			}
		}
	}
	return moved
}

// Drain waits until every queued forward has been delivered (or dropped),
// polling up to timeout. It reports whether the queue emptied in time.
func (r *Replicator) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for r.pending.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// Stats snapshots the replication counters.
func (r *Replicator) Stats() ReplicationStats {
	return ReplicationStats{
		Forwarded:       r.forwarded.Load(),
		ForwardedKeys:   r.forwardedKeys.Load(),
		Pending:         r.pending.Load(),
		MaxPending:      r.maxPending.Load(),
		Errors:          r.errors.Load(),
		Transferred:     r.transferred.Load(),
		TransferredKeys: r.transferredKeys.Load(),
	}
}

// Close stops the replicator after flushing whatever is queued.
func (r *Replicator) Close() {
	r.once.Do(func() { close(r.done) })
	r.wg.Wait()
}
