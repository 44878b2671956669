package cluster

import (
	"fmt"
	"sync"

	"hps/internal/keys"
	"hps/internal/ps"
)

// LocalTransport connects the nodes of an in-process cluster: every node
// registers its handler and every node can pull from (and push to) every
// other node.
// It is safe for concurrent use.
type LocalTransport struct {
	mu       sync.RWMutex
	handlers map[int]PullHandler
	dim      int
}

// NewLocalTransport creates a transport for parameters of the given embedding
// dimension (used for payload-size accounting).
func NewLocalTransport(dim int) *LocalTransport {
	return &LocalTransport{handlers: make(map[int]PullHandler), dim: dim}
}

// Register installs the handler serving pulls for nodeID, replacing any
// previous handler.
func (t *LocalTransport) Register(nodeID int, h PullHandler) {
	t.mu.Lock()
	t.handlers[nodeID] = h
	t.mu.Unlock()
}

// Nodes returns the ids of all registered nodes.
func (t *LocalTransport) Nodes() []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]int, 0, len(t.handlers))
	for id := range t.handlers {
		out = append(out, id)
	}
	return out
}

func (t *LocalTransport) handler(nodeID int) (PullHandler, error) {
	t.mu.RLock()
	h, ok := t.handlers[nodeID]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: no handler registered for node %d", ErrUnknownNode, nodeID)
	}
	return h, nil
}

// PullBlock implements Transport: the handler serves straight into dst.
func (t *LocalTransport) PullBlock(nodeID int, ks []keys.Key, dst *ps.ValueBlock) (int64, error) {
	h, err := t.handler(nodeID)
	if err != nil {
		return 0, err
	}
	if err := h.HandlePullBlock(ks, dst); err != nil {
		return 0, fmt.Errorf("cluster: pull from node %d: %w", nodeID, err)
	}
	return PayloadBytes(t.dim, len(ks), dst.PresentCount()), nil
}

// PushBlock merges blk's delta rows into node nodeID's shard when its
// handler accepts pushes.
func (t *LocalTransport) PushBlock(nodeID int, blk *ps.ValueBlock) (int64, error) {
	h, err := t.handler(nodeID)
	if err != nil {
		return 0, err
	}
	ph, ok := h.(interface {
		HandlePushBlock(blk *ps.ValueBlock) error
	})
	if !ok {
		return 0, &RemoteError{Node: nodeID, Op: opName(rawOpPushBlock), Msg: "shard does not accept pushes"}
	}
	if err := ph.HandlePushBlock(blk); err != nil {
		return 0, fmt.Errorf("cluster: push to node %d: %w", nodeID, err)
	}
	return PayloadBytes(t.dim, len(blk.Keys), blk.PresentCount()), nil
}

// Replicate forwards an applied delta block to nodeID's handler (the
// in-process analogue of TCPTransport.Replicate). The origin stamp is
// accepted for interface parity; in-process handlers do their own dedup.
func (t *LocalTransport) Replicate(nodeID int, client, seq uint64, blk *ps.ValueBlock) (int64, error) {
	h, err := t.handler(nodeID)
	if err != nil {
		return 0, err
	}
	rh, ok := h.(interface {
		HandleReplicate(blk *ps.ValueBlock) error
	})
	if !ok {
		return 0, &RemoteError{Node: nodeID, Op: opName(rawOpReplicate), Msg: "shard does not accept replicated pushes"}
	}
	if err := rh.HandleReplicate(blk); err != nil {
		return 0, fmt.Errorf("cluster: replicate to node %d: %w", nodeID, err)
	}
	return PayloadBytes(t.dim, len(blk.Keys), blk.PresentCount()), nil
}

// Transfer installs the block's rows on nodeID's handler outright (set
// semantics) — the in-process analogue of TCPTransport.Transfer.
func (t *LocalTransport) Transfer(nodeID int, blk *ps.ValueBlock) (int, error) {
	h, err := t.handler(nodeID)
	if err != nil {
		return 0, err
	}
	th, ok := h.(interface {
		HandleTransfer(blk *ps.ValueBlock) (int, error)
	})
	if !ok {
		return 0, &RemoteError{Node: nodeID, Op: opName(rawOpTransfer), Msg: "shard does not accept transfers"}
	}
	n, err := th.HandleTransfer(blk)
	if err != nil {
		return n, fmt.Errorf("cluster: transfer to node %d: %w", nodeID, err)
	}
	return n, nil
}

// UpdateMembership delivers a membership change to nodeID's handler.
func (t *LocalTransport) UpdateMembership(nodeID int, u MembershipUpdate) error {
	h, err := t.handler(nodeID)
	if err != nil {
		return err
	}
	mh, ok := h.(interface {
		HandleMembership(u MembershipUpdate) error
	})
	if !ok {
		return &RemoteError{Node: nodeID, Op: opName(rawOpMembership), Msg: "shard does not accept membership updates"}
	}
	if err := mh.HandleMembership(u); err != nil {
		return fmt.Errorf("cluster: membership update to node %d: %w", nodeID, err)
	}
	return nil
}

// Evict demotes ks out of node nodeID's shard when its handler supports
// evict.
func (t *LocalTransport) Evict(nodeID int, ks []keys.Key) (int, error) {
	h, err := t.handler(nodeID)
	if err != nil {
		return 0, err
	}
	eh, ok := h.(interface {
		Evict(ks []keys.Key) (int, error)
	})
	if !ok {
		return 0, &RemoteError{Node: nodeID, Op: opName(rawOpEvict), Msg: "shard does not support evict"}
	}
	return eh.Evict(ks)
}

// TierStats returns node nodeID's tier name and uniform statistics when its
// handler reports them.
func (t *LocalTransport) TierStats(nodeID int) (ps.TierInfo, error) {
	h, err := t.handler(nodeID)
	if err != nil {
		return ps.TierInfo{}, err
	}
	sh, ok := h.(interface {
		Name() string
		TierStats() ps.Stats
	})
	if !ok {
		return ps.TierInfo{}, &RemoteError{Node: nodeID, Op: opName(rawOpStats), Msg: "shard does not report stats"}
	}
	return ps.TierInfo{Name: sh.Name(), Stats: sh.TierStats()}, nil
}

// Lookup is PullBlock through node nodeID's LookupHandler, when it has one:
// missing keys come back as absent rows instead of being materialized.
func (t *LocalTransport) Lookup(nodeID int, ks []keys.Key, dst *ps.ValueBlock) (int64, error) {
	h, err := t.handler(nodeID)
	if err != nil {
		return 0, err
	}
	lh, ok := h.(LookupHandler)
	if !ok {
		return 0, &RemoteError{Node: nodeID, Op: opName(rawOpLookup), Msg: "shard does not support lookup"}
	}
	if err := lh.HandleLookupBlock(ks, dst); err != nil {
		return 0, fmt.Errorf("cluster: lookup from node %d: %w", nodeID, err)
	}
	return PayloadBytes(t.dim, len(ks), dst.PresentCount()), nil
}
