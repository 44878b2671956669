package memps

import (
	"errors"
	"fmt"
	"slices"

	"hps/internal/cluster"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/ps"
)

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
	return m.assemble(working, dst)
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
	owned := m.holder()
	for x, k := range ks {
		if x > 0 && k <= ks[x-1] {
			return WorkingSet{}, errors.New("memps: PrepareOwnedInto needs sorted unique keys")
		}
		if !owned.holds(k) {
			return WorkingSet{}, fmt.Errorf("memps: node %d asked to resolve key %d owned by node %d",
				m.cfg.NodeID, k, owned.ring.Owner(k))
		}
	}
	ws := WorkingSet{LocalKeys: ks}
	st := &ws.Stats
	st.LocalKeys = len(ks)
	m.mu.Lock()
	ws.refs = m.takeRefs(len(ks))
	err := m.resolve(ks, probePin, st, ws.refs, func(x int, slot int32) {
		for r, dst := range dsts {
			if row := rows[r][x]; row >= 0 {
				dst.CopyRow(int(row), &m.rows, int(slot))
			}
		}
	})
	if err != nil {
		m.spareRefs = append(m.spareRefs, ws.refs[:0])
		m.mu.Unlock()
		return WorkingSet{}, fmt.Errorf("memps: load local parameters: %w", err)
	}
	m.recordPrepared(st)
	m.mu.Unlock()
	m.rec.RecordPull(len(ks))
	return ws, nil
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
}

// ReceivePeerRows records that n rows of this node's batch working set came
// from one peer's MEM-PS, which copied them into this node's block
// (PrepareOwnedInto), and counts their transfer as one Ethernet transfer of
// the keys asked for and the rows sent back — the payload a pull through a
// cluster.Transport moves. It returns that work, which overlaps the node's
// own SSD-PS reads.
func (m *MemPS) ReceivePeerRows(n int) hw.Work {
	w := m.cfg.Fabric.Transfer(hw.ResNetwork, cluster.PayloadBytes(m.cfg.Dim, n, n))
	m.mu.Lock()
	m.stats.RemoteKeys += int64(n)
	m.stats.RemotePulls++
	m.mu.Unlock()
	return w
}

// inRequestOrder serves a request through its sorted unique key set — ks
// itself when it already is one (peers, drivers and training batches ask for
// sorted sets) — which serve resolves, then calls emit(i, j) for every
// request position i in order, j being its key's position in the set: rows
// bound positionally to a request (the wire protocol) never come back
// reordered.
func inRequestOrder(ks []keys.Key, serve func(set []keys.Key) error, emit func(i, j int)) error {
	set := ks
	sorted := keys.SortedUnique(ks)
	if !sorted {
		set = keys.Dedup(slices.Clone(ks))
	}
	if err := serve(set); err != nil {
		return err
	}
	for i, k := range ks {
		j := i
		if !sorted {
			j, _ = slices.BinarySearch(set, k)
		}
		emit(i, j)
	}
	return nil
}

// assemble is the batched-pull path behind PrepareInto: the values are
// copied into dst's flat rows, in sorted unique-key order, and the local
// keys are pinned.
func (m *MemPS) assemble(working []keys.Key, dst *ps.ValueBlock) (*WorkingSet, error) {
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
	owned := m.holder()
	for row, k := range working {
		if owned.holds(k) {
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
	// system; here we issue them concurrently and count both). Each
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

	m.mu.Lock()
	ws.refs = m.takeRefs(len(local))
	err := m.resolve(local, probePin, &ws.Stats, ws.refs, func(i int, slot int32) {
		dst.CopyRow(int(localRows[i]), &m.rows, int(slot))
	})
	if err != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("memps: load local parameters: %w", err)
	}
	m.recordPrepared(&ws.Stats)
	m.stats.RemoteKeys += int64(len(remote))
	m.mu.Unlock()

	// Collect remote results.
	for i := 0; i < inFlight; i++ {
		r := <-resultCh
		if r.err != nil {
			if err == nil {
				err = fmt.Errorf("memps: remote pull: %w", r.err)
			}
			ps.PutBlock(r.sub)
			continue
		}
		ws.Stats.Work.Add(m.cfg.Fabric.Transfer(hw.ResNetwork, r.bytes))
		m.mu.Lock()
		m.stats.RemotePulls++
		m.mu.Unlock()
		dst.ScatterRows(r.sub) // drops rows the peer was never asked for
		ps.PutBlock(r.sub)
	}
	// Every local row is set by now, so a row still absent is a key its
	// owner did not return.
	if i := slices.Index(dst.Present, false); err == nil && i >= 0 {
		err = fmt.Errorf("memps: node %d did not return key %d", m.cfg.Topology.NodeOf(dst.Keys[i]), dst.Keys[i])
	}
	if err != nil {
		// Same invariant as resolve's: a failed PrepareInto must not leak
		// pins — by now every local key has been pinned.
		m.mu.Lock()
		m.unpin(ws)
		m.mu.Unlock()
		return nil, err
	}
	// Only the locally-served keys count toward this tier instance's uniform
	// statistics: the remote keys are recorded by the MEM-PS that serves
	// them (HandlePullBlock), so cluster-wide aggregates count each key once.
	m.rec.RecordPull(len(local))
	return ws, nil
}

// servePull is the shared serving prologue of every pull-RPC handler: it
// verifies ownership of ks, resolves each key to its authoritative value
// (batch-loading the cold parameters from the SSD-PS, materializing first
// references) under m.mu, and hands the values to emit in request order, as
// rows of a block. Served parameters enter the cache (they are now "recently
// used") but are not pinned. The caller records the serve in the tier
// statistics.
func (m *MemPS) servePull(ks []keys.Key, emit func(i int, src *ps.ValueBlock, j int)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	owned := m.holder()
	for _, k := range ks {
		if !owned.holds(k) {
			return fmt.Errorf("memps: node %d asked for key %d owned by node %d",
				m.cfg.NodeID, k, owned.ring.Owner(k))
		}
	}
	var st PullStats
	served := &m.served
	err := inRequestOrder(ks, func(set []keys.Key) error {
		served.ResetUninit(m.cfg.Dim, set)
		return m.resolve(set, probeRead, &st, nil, func(j int, slot int32) { served.CopyRow(j, &m.rows, int(slot)) })
	}, func(i, j int) { emit(i, served, j) })
	if err != nil {
		return fmt.Errorf("memps: handle pull: %w", err)
	}
	return nil
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
	var onSSD []int32 // positions in ks
	n := 0
	m.mu.Lock()
	h := m.holder()
	for i, k := range ks {
		if owned && !h.holds(k) {
			continue
		}
		if slot, ok := m.cache.Get(uint64(k)); ok {
			dst.CopyRow(i, &m.rows, int(slot))
			n++
		} else if d, ok := m.dumped.Get(k); ok {
			dst.CopyRow(i, m.dumpOf(d), int(d.row))
			n++
		} else {
			onSSD = append(onSSD, int32(i))
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
	if _, err := m.cfg.Store.LoadInto(toLoad, dst, onSSD); err != nil {
		return 0, fmt.Errorf("memps: read parameters: %w", err)
	}
	for _, i := range onSSD {
		if dst.Present[i] {
			n++
		}
	}
	return n, nil
}

// HandlePullBlock implements cluster.PullHandler: it serves parameter pulls
// from other nodes (or a multi-process driver) for the shard this node owns,
// materializing first references, with the values written straight into
// dst's flat rows in request-key order.
func (m *MemPS) HandlePullBlock(ks []keys.Key, dst *ps.ValueBlock) error {
	dst.Reset(m.cfg.Dim, ks)
	err := m.servePull(ks, func(i int, src *ps.ValueBlock, j int) {
		dst.CopyRow(i, src, j)
	})
	if err != nil {
		return err
	}
	m.rec.RecordPull(len(ks))
	return nil
}

// HandlePullBlockWire is HandlePullBlock's contract with the reply encoded
// straight into the outgoing frame (the pull of cluster.Shard): each served
// row is copied out of the slab into the MEM-PS's reused serving block and
// encoded from there into dst's wire bytes, under the MEM-PS lock. No row
// crosses an embedding.Value or a pooled block on its way to the socket.
func (m *MemPS) HandlePullBlockWire(ks []keys.Key, dst []byte) ([]byte, error) {
	out := ps.AppendWireHeader(dst, m.cfg.Dim, len(ks))
	err := m.servePull(ks, func(_ int, src *ps.ValueBlock, j int) {
		out = ps.AppendWireRow(out, true, src.Freq[j], src.WeightsRow(j), src.G2Row(j))
	})
	if err != nil {
		return out, err // the caller discards the content, not the buffer
	}
	m.rec.RecordPull(len(ks))
	return out, nil
}
