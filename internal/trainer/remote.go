package trainer

import (
	"fmt"
	"sync"
	"time"

	"hps/internal/cluster"
	"hps/internal/keys"
	"hps/internal/ps"
)

// remoteNet accumulates the real network activity of a multi-process run —
// wall-clock time and payload bytes of the parameter RPCs — for the Fig-4
// style breakdown.
type remoteNet struct {
	mu         sync.Mutex
	pulls      int64
	pushes     int64
	keysPulled int64
	keysPushed int64
	bytes      int64
	pullWall   time.Duration
	pushWall   time.Duration
	// failovers counts operations that only succeeded against a backup after
	// the primary was unreachable — the degraded-window marker of a run.
	failovers int64
}

func (r *remoteNet) recordFailover() {
	r.mu.Lock()
	r.failovers++
	r.mu.Unlock()
}

func (r *remoteNet) recordPull(nkeys int, bytes int64, wall time.Duration) {
	r.mu.Lock()
	r.pulls++
	r.keysPulled += int64(nkeys)
	r.bytes += bytes
	r.pullWall += wall
	r.mu.Unlock()
}

func (r *remoteNet) recordPush(nkeys int, bytes int64, wall time.Duration) {
	r.mu.Lock()
	r.pushes++
	r.keysPushed += int64(nkeys)
	r.bytes += bytes
	r.pushWall += wall
	r.mu.Unlock()
}

// remoteShard is the owner contract against one shard server process — one
// ring member — over the trainer's shared transport. A batch costs it one
// pull RPC of the keys it owns across every node and one push RPC of its
// share of the merged deltas; each falls over to the keys' backups when the
// member is unreachable and the deployment is replicated.
type remoteShard struct {
	id        int
	transport *cluster.TCPTransport
	topo      cluster.Topology
	dim       int
	net       *remoteNet
}

// newRemoteShards returns owners extended with a remoteShard for every id in
// ids it lacks. The result is a fresh slice, so a batch already dealt over
// owners keeps reading the table it was dealt over.
func (t *Trainer) newRemoteShards(owners []owner, ids []int) []owner {
	n := len(owners)
	for _, id := range ids {
		n = max(n, id+1)
	}
	out := make([]owner, n)
	copy(out, owners)
	for _, id := range ids {
		if out[id] == nil {
			out[id] = &remoteShard{id: id, transport: t.remote, topo: t.cfg.Topology,
				dim: t.cfg.Spec.EmbeddingDim, net: t.remoteNet}
		}
	}
	return out
}

// resolve pulls the member's share of the batch in one PullBlock — falling
// over to each key's backup on a primary outage — and deals the rows into
// every node's block. A member that owns none of the batch's keys is not
// called. There is no pinning: the shard process owns its cache retention.
func (r *remoteShard) resolve(shares []ownedPull, dsts []*ps.ValueBlock) (time.Duration, error) {
	op := &shares[r.id]
	if len(op.keys) == 0 {
		return 0, nil
	}
	start := time.Now()
	sub := ps.GetBlock(r.dim, nil)
	defer ps.PutBlock(sub)
	bytes, err := r.transport.PullBlock(r.id, op.keys, sub)
	if err != nil && r.topo.Replicas > 1 {
		// Backups legitimately answer for the keys they replicate, and first
		// references materialize identically everywhere (the keyed init is
		// node-independent), so the rows match what the primary would have
		// served up to the bounded replication lag.
		bytes, err = r.topo.ReadBackups(-1, op.keys, r.dim, sub, r.transport.PullBlock)
		if err == nil {
			r.net.recordFailover()
		}
	}
	if err != nil {
		return 0, fmt.Errorf("trainer: remote pull from shard %d: %w", r.id, err)
	}
	if got := sub.PresentCount(); sub.Len() != len(op.keys) || got != len(op.keys) {
		// The MEM-PS materializes first references, so a shard that answered
		// at all answers completely; a gap means a shard bug.
		return 0, fmt.Errorf("trainer: remote pull from shard %d returned %d of %d keys", r.id, got, len(op.keys))
	}
	for n, dst := range dsts {
		for x, row := range op.rows[n] {
			if row < 0 {
				continue
			}
			dst.CopyRow(int(row), sub, x)
		}
	}
	wall := time.Since(start)
	r.net.recordPull(len(op.keys), bytes, wall)
	return wall, nil
}

// apply sends the member's partition of the merged delta block, sliced out of
// the (sorted) block slab-wise into a pooled sub-block, as one flat wire
// frame. When the member is unreachable and the deployment is replicated, the
// partition fails over: its rows are re-split per key by backup and delivered
// through the replicate op under the push's ORIGINAL dedup stamp —
// byte-for-byte the forwards the dead primary would have sent, so a backup
// that already received them acks duplicates instead of double-applying, and
// one that did not applies them fresh. Either way no applied push is lost and
// none is applied twice. A member that owns none of the rows is not called.
func (r *remoteShard) apply(d deltas, _ []ownedPull) (time.Duration, error) {
	blk := d.global
	sub := ps.GetBlock(r.dim, nil)
	defer ps.PutBlock(sub)
	sub.Grow(blk.Len())
	ring := r.topo.Ring()
	for i, k := range blk.Keys {
		if blk.Present[i] && ring.Owner(k) == r.id {
			sub.AppendRow(k, blk.WeightsRow(i), blk.G2Row(i), blk.Freq[i])
		}
	}
	if sub.Len() == 0 {
		return 0, nil
	}
	start := time.Now()
	client, seq := r.transport.Stamp()
	bytes, err := r.transport.PushBlockStamped(r.id, client, seq, sub)
	if err != nil && r.topo.Replicas > 1 {
		bytes, err = r.pushFailover(client, seq, sub)
		if err == nil {
			r.net.recordFailover()
		}
	}
	if err != nil {
		return 0, fmt.Errorf("trainer: remote push: %w", err)
	}
	wall := time.Since(start)
	r.net.recordPush(sub.Len(), bytes, wall)
	return wall, nil
}

// pushFailover delivers sub's rows to each key's backup under the failed
// push's stamp (see apply).
func (r *remoteShard) pushFailover(client, seq uint64, sub *ps.ValueBlock) (int64, error) {
	parts := make(map[int]*ps.ValueBlock, 2)
	defer func() {
		for _, p := range parts {
			ps.PutBlock(p)
		}
	}()
	for i, k := range sub.Keys {
		if !sub.Present[i] {
			continue
		}
		b := r.topo.BackupOf(k)
		if b < 0 {
			return 0, fmt.Errorf("key %d has no backup", k)
		}
		p := parts[b]
		if p == nil {
			p = ps.GetBlock(r.dim, nil)
			parts[b] = p
		}
		p.AppendRow(k, sub.WeightsRow(i), sub.G2Row(i), sub.Freq[i])
	}
	var total int64
	for b, p := range parts {
		n, err := r.transport.Replicate(b, client, seq, p)
		if err != nil {
			return 0, fmt.Errorf("backup %d: %w", b, err)
		}
		total += n
	}
	return total, nil
}

// complete does nothing: a shard server pins nothing for the driver.
func (r *remoteShard) complete([]ownedPull) error { return nil }

// TierStats fetches the member's own uniform statistics. An unreachable shard
// reports zero statistics — reports are best-effort and must not fail a run
// that already completed; the RemoteNetReport's retry/reconnect counters
// record that the run had connectivity trouble.
func (r *remoteShard) TierStats() ps.Stats {
	info, err := r.transport.TierStats(r.id)
	if err != nil {
		return ps.Stats{}
	}
	return info.Stats
}

// HandleLookupBlock reads ks with the no-create lookup RPC, failing over to
// each key's backup when the member is unreachable.
func (r *remoteShard) HandleLookupBlock(ks []keys.Key, dst *ps.ValueBlock) error {
	_, err := r.transport.Lookup(r.id, ks, dst)
	if err != nil && r.topo.Replicas > 1 {
		_, err = r.topo.ReadBackups(-1, ks, r.dim, dst, r.transport.Lookup)
		if err == nil {
			r.net.recordFailover()
		}
	}
	if err != nil {
		return fmt.Errorf("trainer: remote lookup: %w", err)
	}
	return nil
}

// Flush is an evict-everything RPC, which demotes the member's entire
// in-memory state to its SSD-PS and fsyncs it (memps.MemPS.Evict with a nil
// key list is its Flush).
func (r *remoteShard) Flush() error {
	if _, err := r.transport.Evict(r.id, nil); err != nil {
		return fmt.Errorf("trainer: remote flush shard %d: %w", r.id, err)
	}
	return nil
}

// RemoteNetReport is the real-network section of a multi-process run's
// report: RPC counts, payload bytes and wall-clock time measured at the
// driver, plus the transport's connection-level counters.
type RemoteNetReport struct {
	// Shards is the number of MEM-PS shard processes: the ring's members at
	// report time.
	Shards int
	// Pulls / Pushes count parameter RPCs; KeysPulled / KeysPushed count the
	// parameters they moved.
	Pulls, Pushes          int64
	KeysPulled, KeysPushed int64
	// PayloadBytes is the fp32-equivalent payload volume of the parameter
	// RPCs — the bytes the run would have moved without quantization.
	PayloadBytes int64
	// WireBytes counts the bytes that actually crossed the sockets (frame
	// headers included, rows possibly quantized). Comparing it with
	// PayloadBytes shows the quantization saving.
	WireBytes int64
	// Precision names the negotiated on-wire row encoding (fp32/fp16/int8).
	Precision string
	// PullWall / PushWall are cumulative wall-clock times of the RPCs (the
	// real network component of the batch breakdown).
	PullWall, PushWall time.Duration
	// Calls / Retries / Redials are the transport's connection counters;
	// non-zero Redials means the run rode out at least one reconnect.
	Calls, Retries, Redials int64
	// Failovers counts operations served by a backup shard because the
	// primary was unreachable — non-zero means the run trained (or read)
	// through a degraded window.
	Failovers int64
}
