package trainer

import (
	"fmt"
	"sync"
	"time"

	"hps/internal/cluster"
	"hps/internal/embedding"
	"hps/internal/keys"
	"hps/internal/memps"
	"hps/internal/ps"
)

// memService is the node-facing contract of the MEM-PS tier. The in-process
// memps.MemPS satisfies it directly; in multi-process mode a remoteMem
// satisfies it by RPC against the shard server processes, so the training
// stages are identical in both deployments.
type memService interface {
	Name() string
	TierStats() ps.Stats
	// PrepareInto assembles the working set of a batch's referenced keys,
	// delivering the values in dst's flat rows (sorted unique-key order).
	// The returned WorkingSet carries its statistics. The trainer calls it in
	// multi-process mode only: in process every MEM-PS resolves the keys it
	// owns for all nodes at once (memps.MemPS.PrepareOwnedInto).
	PrepareInto(working []keys.Key, dst *ps.ValueBlock) (*memps.WorkingSet, error)
	// PushBlock merges the collected delta block (flat rows, changed keys
	// only) into the authoritative copies of the shard this node owns.
	PushBlock(req ps.PushBlockRequest) error
	// LookupAll reads current values without materializing missing keys.
	// A missing key is absent from the result; an error means the values
	// could not be read at all (e.g. an unreachable shard).
	LookupAll(ks []keys.Key) (map[keys.Key]*embedding.Value, error)
	// Flush persists the in-memory parameters to the SSD-PS below.
	Flush() error
}

var _ memService = (*memps.MemPS)(nil)

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

// remoteMem is one virtual node's view of the sharded remote MEM-PS tier:
// the node's batches pull their working sets from the owning shard processes
// and push this node's shard partition of the global deltas back. All nodes
// share one transport (connection reuse across the driver).
type remoteMem struct {
	transport cluster.TierTransport
	node      int
	dim       int
	topo      cluster.Topology
	net       *remoteNet
	// vnodes is the number of trainer virtual nodes; shard partitions are
	// assigned to virtual nodes round-robin over the sorted member list, so a
	// ring with more (or fewer) shards than virtual nodes still has every
	// partition pushed by exactly one node per batch.
	vnodes int
	// pipeline is the per-shard pull fan-out (Config.PullPipeline): when > 1,
	// PrepareInto splits each shard's key partition into up to pipeline chunks
	// and pulls them as concurrent RPCs over the transport's extra
	// connections.
	pipeline int
}

// stampedPusher is the transport surface of push failover: take a dedup stamp
// up front, push under it, and on primary outage deliver the same rows to the
// backups via the replicate op under the SAME stamp — identical to the
// forward the primary would have sent, so it dedups against it.
type stampedPusher interface {
	Stamp() (client, seq uint64)
	PushBlockStamped(nodeID int, client, seq uint64, blk *ps.ValueBlock) (int64, error)
	Replicate(nodeID int, client, seq uint64, blk *ps.ValueBlock) (int64, error)
}

// assigned returns the member shards whose push partitions this virtual node
// is responsible for: sorted member j goes to virtual node j mod vnodes.
// Without a ring the mapping is the original one-to-one node id.
func (r *remoteMem) assigned() []int {
	if r.topo.Members == nil {
		return []int{r.node}
	}
	members := r.topo.MemberIDs()
	out := make([]int, 0, len(members)/r.vnodes+1)
	for j, m := range members {
		if j%r.vnodes == r.node {
			out = append(out, m)
		}
	}
	return out
}

// pullChunkMin is the smallest key chunk PrepareInto will split a shard
// partition into: below this the per-RPC overhead outweighs the overlap.
const pullChunkMin = 64

var _ memService = (*remoteMem)(nil)

// Name implements memService; the remote tier is still the MEM-PS.
func (r *remoteMem) Name() string { return "mem-ps" }

// TierStats fetches the assigned shards' own uniform statistics. An
// unreachable shard reports zero statistics — reports are best-effort and
// must not fail a run that already completed; the RemoteNetReport's
// retry/reconnect counters record that the run had connectivity trouble.
func (r *remoteMem) TierStats() ps.Stats {
	var sum ps.Stats
	for _, m := range r.assigned() {
		info, err := r.transport.TierStats(m)
		if err != nil {
			continue
		}
		sum = sum.Add(info.Stats)
	}
	return sum
}

// PrepareInto implements memService: the working set is assembled by
// pulling every key partition from its owning shard process, concurrently —
// as one flat block frame per shard, scattered into dst's sorted rows. There
// is no local pinning: the shard processes own cache retention, so the
// working set only carries counts and timing (working belongs to the caller's
// recycled batch index and must not be retained).
func (r *remoteMem) PrepareInto(working []keys.Key, dst *ps.ValueBlock) (*memps.WorkingSet, error) {
	if !keys.SortedUnique(working) {
		working = keys.Dedup(append([]keys.Key(nil), working...))
	}
	dst.Reset(r.dim, working)
	ws := &memps.WorkingSet{}
	ws.Stats.RemoteKeys = len(working)

	type pullResult struct {
		sub *ps.ValueBlock
		err error
	}
	parts := r.topo.SplitByNode(working)
	fanOut := max(r.pipeline, 1)
	start := time.Now()
	resultCh := make(chan pullResult, len(parts)*fanOut)
	inFlight := 0
	for nodeID, ks := range parts {
		if len(ks) == 0 {
			continue
		}
		// Pipelined pulls: split the shard's partition into up to fanOut
		// chunks and issue each as its own RPC, so the chunks stream over the
		// transport's extra connections concurrently and decode overlaps
		// network wait.
		chunks := 1
		if fanOut > 1 {
			chunks = min(fanOut, (len(ks)+pullChunkMin-1)/pullChunkMin)
		}
		size := (len(ks) + chunks - 1) / chunks
		for off := 0; off < len(ks); off += size {
			sub := ks[off:min(off+size, len(ks))]
			inFlight++
			go func(nodeID int, ks []keys.Key) {
				sub := ps.GetBlock(r.dim, ks)
				bytes, err := r.transport.PullBlock(nodeID, ks, sub)
				if err != nil && r.topo.Replicas > 1 {
					// Primary outage: re-pull this partition from each key's
					// backup, which holds (or identically materializes) the
					// replicated rows.
					bytes, err = r.pullFailover(ks, sub)
					if err == nil {
						r.net.recordFailover()
					}
				}
				if err == nil {
					r.net.recordPull(len(ks), bytes, time.Since(start))
				}
				resultCh <- pullResult{sub: sub, err: err}
			}(nodeID, sub)
		}
	}
	var firstErr error
	for i := 0; i < inFlight; i++ {
		pr := <-resultCh
		if pr.err != nil && firstErr == nil {
			firstErr = pr.err
		}
		if pr.err == nil {
			dst.ScatterRows(pr.sub) // drops rows the shard was never asked for
		}
		ps.PutBlock(pr.sub)
	}
	if firstErr != nil {
		return nil, fmt.Errorf("trainer: remote prepare: %w", firstErr)
	}
	ws.Stats.RemoteTime = time.Since(start)
	if got := dst.PresentCount(); got != len(working) {
		// The MEM-PS materializes first references, so a shard that answered
		// at all answers completely; a gap means a shard bug.
		return nil, fmt.Errorf("trainer: remote prepare returned %d of %d keys", got, len(working))
	}
	return ws, nil
}

// pullFailover re-pulls a primary's partition from each key's backup and
// scatters the rows into dst. Backups legitimately answer for the keys they
// replicate, and first references materialize identically everywhere (the
// keyed init is node-independent), so the assembled working set matches what
// the primary would have served up to the bounded replication lag.
func (r *remoteMem) pullFailover(ks []keys.Key, dst *ps.ValueBlock) (int64, error) {
	parts := make(map[int][]keys.Key, 2)
	for _, k := range ks {
		b := r.topo.BackupOf(k)
		if b < 0 {
			return 0, fmt.Errorf("key %d has no backup", k)
		}
		parts[b] = append(parts[b], k)
	}
	dst.Reset(r.dim, ks)
	var total int64
	for b, bks := range parts {
		sub := ps.GetBlock(r.dim, bks)
		bytes, err := r.transport.PullBlock(b, bks, sub)
		if err != nil {
			ps.PutBlock(sub)
			return 0, fmt.Errorf("backup %d: %w", b, err)
		}
		dst.ScatterRows(sub)
		ps.PutBlock(sub)
		total += bytes
	}
	return total, nil
}

// PushBlock implements memService: it sends each assigned member shard's
// partition of the global delta block to its owning shard process. Every
// partition is pushed by exactly one virtual node per batch, so each shard
// applies the global sum exactly once — the same once-per-owner discipline as
// the in-process MEM-PS. The owned rows are sliced out of the (sorted) global
// block into a pooled sub-block slab-wise and travel as one flat wire frame.
func (r *remoteMem) PushBlock(req ps.PushBlockRequest) error {
	for _, m := range r.assigned() {
		if err := r.pushOwned(m, req.Block); err != nil {
			return err
		}
	}
	return nil
}

// pushOwned pushes member's partition of blk. When the member is unreachable
// and the deployment is replicated, the partition fails over: its rows are
// re-split per key by backup and delivered through the replicate op under the
// push's ORIGINAL dedup stamp — byte-for-byte the forwards the dead primary
// would have sent, so a backup that already received them acks duplicates
// instead of double-applying, and one that did not applies them fresh. Either
// way no applied push is lost and none is applied twice.
func (r *remoteMem) pushOwned(member int, blk *ps.ValueBlock) error {
	sub := ps.GetBlock(r.dim, nil)
	defer ps.PutBlock(sub)
	sub.Grow(blk.Len())
	for i, k := range blk.Keys {
		if blk.Present[i] && r.topo.NodeOf(k) == member {
			sub.AppendRow(k, blk.WeightsRow(i), blk.G2Row(i), blk.Freq[i])
		}
	}
	if sub.Len() == 0 {
		return nil
	}
	start := time.Now()
	var bytes int64
	var err error
	if sp, ok := r.transport.(stampedPusher); ok {
		client, seq := sp.Stamp()
		bytes, err = sp.PushBlockStamped(member, client, seq, sub)
		if err != nil && r.topo.Replicas > 1 {
			bytes, err = r.pushFailover(sp, client, seq, sub)
			if err == nil {
				r.net.recordFailover()
			}
		}
	} else {
		bytes, err = r.transport.PushBlock(member, sub)
	}
	if err != nil {
		return fmt.Errorf("trainer: remote push: %w", err)
	}
	r.net.recordPush(sub.Len(), bytes, time.Since(start))
	return nil
}

// pushFailover delivers sub's rows to each key's backup under the failed
// push's stamp (see pushOwned).
func (r *remoteMem) pushFailover(sp stampedPusher, client, seq uint64, sub *ps.ValueBlock) (int64, error) {
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
		n, err := sp.Replicate(b, client, seq, p)
		if err != nil {
			return 0, fmt.Errorf("backup %d: %w", b, err)
		}
		total += n
	}
	return total, nil
}

// LookupAll implements memService with the no-create lookup RPC, split by
// owning member and failing over to each key's backup when an owner is
// unreachable.
func (r *remoteMem) LookupAll(ks []keys.Key) (map[keys.Key]*embedding.Value, error) {
	out := make(map[keys.Key]*embedding.Value, len(ks))
	for owner, part := range r.topo.SplitByNode(ks) {
		if len(part) == 0 {
			continue
		}
		res, _, err := r.transport.Lookup(owner, part)
		if err != nil && r.topo.Replicas > 1 {
			res, err = r.lookupFailover(part, err)
		}
		if err != nil {
			return nil, fmt.Errorf("trainer: remote lookup: %w", err)
		}
		for k, v := range res {
			out[k] = v
		}
	}
	return out, nil
}

// lookupFailover reads part from each key's backup after its owner failed
// with primErr.
func (r *remoteMem) lookupFailover(part []keys.Key, primErr error) (cluster.PullResult, error) {
	parts := make(map[int][]keys.Key, 2)
	for _, k := range part {
		b := r.topo.BackupOf(k)
		if b < 0 {
			return nil, primErr
		}
		parts[b] = append(parts[b], k)
	}
	out := make(cluster.PullResult, len(part))
	for b, bks := range parts {
		res, _, err := r.transport.Lookup(b, bks)
		if err != nil {
			return nil, fmt.Errorf("%v; backup %d: %w", primErr, b, err)
		}
		for k, v := range res {
			out[k] = v
		}
	}
	r.net.recordFailover()
	return out, nil
}

// Flush implements memService: an evict-everything RPC against each assigned
// member shard, which demotes its entire in-memory state to its SSD-PS and
// fsyncs it (memps.MemPS.Evict with a nil key list is its Flush).
func (r *remoteMem) Flush() error {
	for _, m := range r.assigned() {
		if _, err := r.transport.Evict(m, nil); err != nil {
			return fmt.Errorf("trainer: remote flush shard %d: %w", m, err)
		}
	}
	return nil
}

// RemoteNetReport is the real-network section of a multi-process run's
// report: RPC counts, payload bytes and wall-clock time measured at the
// driver, plus the transport's connection-level counters.
type RemoteNetReport struct {
	// Shards is the number of MEM-PS shard processes.
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
