package cluster

import (
	"fmt"
	"time"

	"hps/internal/embedding"
	"hps/internal/keys"
	"hps/internal/ps"
)

// TierHandler adapts any ps.Tier to the server-side handler interfaces, so
// one ServeTCP call exposes a whole tier (a MEM-PS backed by an SSD-PS, a
// bare SSD-PS store, the MPI baseline) behind the wire protocol.
type TierHandler struct {
	// Tier is the tier being served.
	Tier ps.Tier
}

var (
	_ PullHandler      = (*TierHandler)(nil)
	_ PushHandler      = (*TierHandler)(nil)
	_ LookupHandler    = (*TierHandler)(nil)
	_ EvictHandler     = (*TierHandler)(nil)
	_ StatsHandler     = (*TierHandler)(nil)
	_ BlockPullHandler = (*TierHandler)(nil)
	_ BlockPushHandler = (*TierHandler)(nil)
)

// HandlePull implements PullHandler via the tier's Pull.
func (h *TierHandler) HandlePull(ks []keys.Key) (PullResult, error) {
	res, err := h.Tier.Pull(ps.PullRequest{Shard: ps.NoShard, Keys: ks})
	if err != nil {
		return nil, err
	}
	return PullResult(res), nil
}

// HandlePush implements PushHandler via the tier's Push.
func (h *TierHandler) HandlePush(deltas map[keys.Key]*embedding.Value) error {
	return h.Tier.Push(ps.PushRequest{Shard: ps.NoShard, Deltas: deltas})
}

// HandlePullBlock implements BlockPullHandler through the ps.PullInto
// adapter, so block frames reach the tier's native block path when it has
// one and its map-based Pull otherwise.
func (h *TierHandler) HandlePullBlock(ks []keys.Key, dst *ps.ValueBlock) error {
	return ps.PullInto(h.Tier, ps.PullRequest{Shard: ps.NoShard, Keys: ks}, dst)
}

// HandlePushBlock implements BlockPushHandler through the ps.PushBlock
// adapter.
func (h *TierHandler) HandlePushBlock(blk *ps.ValueBlock) error {
	return ps.PushBlock(h.Tier, ps.PushBlockRequest{Shard: ps.NoShard, Block: blk})
}

// HandleLookup implements LookupHandler. A plain tier's Pull already leaves
// missing keys absent; tiers that materialize on pull (the MEM-PS) implement
// LookupHandler themselves and are served directly, not through this adapter.
func (h *TierHandler) HandleLookup(ks []keys.Key) (PullResult, error) {
	return h.HandlePull(ks)
}

// Evict implements EvictHandler.
func (h *TierHandler) Evict(ks []keys.Key) (int, error) { return h.Tier.Evict(ks) }

// Name implements StatsHandler.
func (h *TierHandler) Name() string { return h.Tier.Name() }

// TierStats implements StatsHandler.
func (h *TierHandler) TierStats() ps.Stats { return h.Tier.TierStats() }

// RemoteTier makes one remote node's parameter server usable as a local
// ps.Tier: Pull, Push and Evict become RPCs over the given transport. Its
// TierStats are recorded client-side — they describe the operations issued
// through this handle, with real network time in PullTime/PushTime; use
// RemoteStats for the serving tier's own cumulative statistics.
type RemoteTier struct {
	transport TierTransport
	node      int
	rec       ps.Recorder
}

var (
	_ ps.Tier        = (*RemoteTier)(nil)
	_ ps.BlockPuller = (*RemoteTier)(nil)
	_ ps.BlockPusher = (*RemoteTier)(nil)
)

// NewRemoteTier returns a tier view of node nodeID behind transport.
func NewRemoteTier(transport TierTransport, nodeID int) *RemoteTier {
	return &RemoteTier{transport: transport, node: nodeID}
}

// Name implements ps.Tier.
func (r *RemoteTier) Name() string { return fmt.Sprintf("remote[%d]", r.node) }

// Pull implements ps.Tier. Whether missing keys are materialized is the
// serving tier's policy (the MEM-PS creates them, the SSD-PS leaves them
// absent).
func (r *RemoteTier) Pull(req ps.PullRequest) (ps.Result, error) {
	start := time.Now()
	res, _, err := r.transport.Pull(r.node, req.Keys)
	if err != nil {
		return nil, err
	}
	r.rec.RecordPull(len(res), time.Since(start))
	return ps.Result(res), nil
}

// PullInto implements ps.BlockPuller: the reply crosses the wire as one flat
// frame and lands in dst without per-value decoding.
func (r *RemoteTier) PullInto(req ps.PullRequest, dst *ps.ValueBlock) error {
	start := time.Now()
	if _, err := r.transport.PullBlock(r.node, req.Keys, dst); err != nil {
		return err
	}
	r.rec.RecordPull(dst.PresentCount(), time.Since(start))
	return nil
}

// PushBlock implements ps.BlockPusher, carrying the deltas as one flat frame.
func (r *RemoteTier) PushBlock(req ps.PushBlockRequest) error {
	start := time.Now()
	if _, err := r.transport.PushBlock(r.node, req.Block); err != nil {
		return err
	}
	r.rec.RecordPush(req.Block.PresentCount(), time.Since(start))
	return nil
}

// Push implements ps.Tier.
func (r *RemoteTier) Push(req ps.PushRequest) error {
	start := time.Now()
	if _, err := r.transport.Push(r.node, req.Deltas); err != nil {
		return err
	}
	r.rec.RecordPush(len(req.Deltas), time.Since(start))
	return nil
}

// Evict implements ps.Tier.
func (r *RemoteTier) Evict(ks []keys.Key) (int, error) {
	n, err := r.transport.Evict(r.node, ks)
	if err != nil {
		return 0, err
	}
	r.rec.RecordEvict(n)
	return n, nil
}

// TierStats implements ps.Tier with the client-side view of this handle's
// operations (real wall-clock network time included).
func (r *RemoteTier) TierStats() ps.Stats { return r.rec.TierStats() }

// RemoteStats fetches the serving tier's own name and cumulative statistics
// over the wire.
func (r *RemoteTier) RemoteStats() (ps.TierInfo, error) {
	return r.transport.TierStats(r.node)
}
