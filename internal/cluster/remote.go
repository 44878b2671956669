package cluster

import (
	"fmt"

	"hps/internal/keys"
	"hps/internal/ps"
)

// RemoteTier makes one remote node's parameter server usable as a local
// ps.Tier: PullInto, PushBlock and Evict become RPCs over the given
// transport, the first two carrying one flat block frame each. Its TierStats
// are recorded client-side — they describe the operations issued through
// this handle.
type RemoteTier struct {
	transport TierTransport
	node      int
	rec       ps.Recorder
}

var _ ps.Tier = (*RemoteTier)(nil)

// NewRemoteTier returns a tier view of node nodeID behind transport.
func NewRemoteTier(transport TierTransport, nodeID int) *RemoteTier {
	return &RemoteTier{transport: transport, node: nodeID}
}

// Name implements ps.Tier.
func (r *RemoteTier) Name() string { return fmt.Sprintf("remote[%d]", r.node) }

// PullInto implements ps.Tier: the reply crosses the wire as one flat frame
// and lands in dst without per-value decoding. Whether missing keys are
// materialized is the serving tier's policy (the MEM-PS creates them).
func (r *RemoteTier) PullInto(req ps.PullRequest, dst *ps.ValueBlock) error {
	if _, err := r.transport.PullBlock(r.node, req.Keys, dst); err != nil {
		return err
	}
	r.rec.RecordPull(dst.PresentCount())
	return nil
}

// PushBlock implements ps.Tier, carrying the deltas as one flat frame.
func (r *RemoteTier) PushBlock(req ps.PushBlockRequest) error {
	if _, err := r.transport.PushBlock(r.node, req.Block); err != nil {
		return err
	}
	r.rec.RecordPush(req.Block.PresentCount())
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
// operations.
func (r *RemoteTier) TierStats() ps.Stats { return r.rec.TierStats() }
