package serving

import (
	"sync"

	"hps/internal/cluster"
	"hps/internal/keys"
	"hps/internal/memps"
	"hps/internal/ps"
)

// Handler grafts a serving Server onto a MEM-PS behind one TCP server: the
// training operations (pull, push, lookup, ...) promote from the embedded
// MEM-PS, the serving operations forward to the Server, and the push
// handlers are overridden to advance the Server's push-epoch clock after
// each successfully applied push — the hook that invalidates the replica
// cache and bounds serving staleness to one push epoch.
//
// In a replicated deployment the Handler is also where the write path meets
// replication: an applied training push is handed to the Replicator (still
// under the origin client's dedup stamp) for asynchronous forwarding to the
// keys' backups, and a membership update installs the new ring and kicks off
// background re-replication.
type Handler struct {
	*memps.MemPS
	Serving *Server
	// Replicator, when set, forwards applied pushes to each key's backups and
	// re-replicates key ranges after membership changes.
	Replicator *memps.Replicator
	// Peers, when set, learns the address book carried by membership updates
	// (a joining shard's address must be installed before the first transfer
	// or replica forward is sent to it). cluster.TCPTransport implements it.
	Peers interface{ SetAddr(nodeID int, addr string) }
	// Seqs, when set, is the shard's push-dedup tracker; its log is compacted
	// after every checkpoint flush (see Evict).
	Seqs *cluster.SeqTracker

	// reshardMu serializes background re-replication runs so overlapping
	// membership changes stream their transfers one at a time.
	reshardMu sync.Mutex
}

// NewHandler wraps mem and srv into one TCP-servable handler.
func NewHandler(mem *memps.MemPS, srv *Server) *Handler {
	return &Handler{MemPS: mem, Serving: srv}
}

// HandlePushBlock implements cluster.BlockPushHandler: the MEM-PS applies
// the delta block, then the serving epoch advances so replica-cache entries
// filled before this push stop being served.
func (h *Handler) HandlePushBlock(blk *ps.ValueBlock) error {
	if err := h.MemPS.HandlePushBlock(blk); err != nil {
		return err
	}
	h.Serving.BumpEpoch()
	return nil
}

// HandlePushBlockStamped implements cluster.StampedBlockPushHandler, the form
// the TCP server prefers: the MEM-PS applies the delta block, the serving
// epoch advances, and the Replicator forwards the applied rows to each key's
// backups — still under the origin's (client, seq) stamp, so a backup that
// later takes over acknowledges the origin's own retry as a duplicate.
func (h *Handler) HandlePushBlockStamped(client, seq uint64, blk *ps.ValueBlock) error {
	if err := h.MemPS.HandlePushBlock(blk); err != nil {
		return err
	}
	h.Serving.BumpEpoch()
	if h.Replicator != nil {
		h.Replicator.Forward(client, seq, blk)
	}
	return nil
}

// HandleReplicate implements cluster.ReplicaPushHandler: a delta block some
// primary already applied and forwarded here. It advances the serving epoch
// like a direct push but is never re-forwarded — replication is one hop.
func (h *Handler) HandleReplicate(blk *ps.ValueBlock) error {
	if err := h.MemPS.HandleReplicate(blk); err != nil {
		return err
	}
	h.Serving.BumpEpoch()
	return nil
}

// HandleTransfer implements cluster.TransferHandler: imported rows are
// authoritative full values, so any replica-cache entries for them are stale
// the moment they land.
func (h *Handler) HandleTransfer(blk *ps.ValueBlock) (int, error) {
	n, err := h.MemPS.HandleTransfer(blk)
	if err == nil && n > 0 {
		h.Serving.BumpEpoch()
	}
	return n, err
}

// HandleMembership implements cluster.MembershipHandler: it learns the new
// members' addresses, installs the ring in the shared membership view (stale
// epochs are dropped), and re-replicates in the background — streaming every
// key range the new ring assigns to members that do not hold it yet.
func (h *Handler) HandleMembership(u cluster.MembershipUpdate) error {
	topo := h.MemPS.Topology()
	if err := u.Validate(); err != nil {
		return err
	}
	if h.Peers != nil {
		for id, addr := range u.Addrs {
			h.Peers.SetAddr(id, addr)
		}
	}
	old := topo.Ring()
	next := u.BuildRing()
	if !topo.Members.Update(next) {
		return nil // not newer than the installed ring: already seen
	}
	if h.Replicator != nil {
		go func() {
			h.reshardMu.Lock()
			defer h.reshardMu.Unlock()
			h.Replicator.Reconcile(old, next)
		}()
	}
	return nil
}

// Evict implements cluster.EvictHandler over the embedded MemPS. An
// evict-everything call (nil ks) is the trainer's checkpoint flush: once it
// returns, every applied push is durable in the SSD-PS, so the push-dedup
// log is compacted down to the records still inside the dedup window — the
// only ones the tracker would consult anyway. A compaction failure degrades
// the log (it keeps growing, or dedup drops to process lifetime), it does
// not fail the flush.
func (h *Handler) Evict(ks []keys.Key) (int, error) {
	n, err := h.MemPS.Evict(ks)
	if err == nil && ks == nil && h.Seqs != nil {
		h.Seqs.CompactLog()
	}
	return n, err
}

// HandlePredict implements cluster.PredictHandler.
func (h *Handler) HandlePredict(req cluster.PredictRequest) ([]float32, error) {
	return h.Serving.HandlePredict(req)
}

// HandleServeConfig implements cluster.ServeConfigHandler.
func (h *Handler) HandleServeConfig(cfg cluster.ServeConfig) error {
	return h.Serving.HandleServeConfig(cfg)
}

// ServingStats implements cluster.ServingStatsHandler.
func (h *Handler) ServingStats() cluster.ServingStats {
	return h.Serving.ServingStats()
}
