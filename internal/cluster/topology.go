// Package cluster defines the multi-node topology of the distributed
// hierarchical parameter server and the transports nodes use to pull
// parameters from each other's MEM-PS (Section 5, "Prepare parameters").
//
// Parameters are sharded across nodes by rendezvous hashing (Ring), with R
// replicas per key; within a node they are hash-partitioned across GPUs
// (Section 4.1, Appendix C.1). Every pull and push moves one flat
// ps.ValueBlock per peer. The in-process transport wires several simulated
// nodes together inside one process; the TCP transport runs the same
// protocol across real processes.
package cluster

import (
	"cmp"
	"fmt"

	"hps/internal/keys"
	"hps/internal/ps"
)

// Topology describes the shape of the training cluster.
type Topology struct {
	// Nodes is the number of computing nodes.
	Nodes int
	// GPUsPerNode is the number of GPUs in each node.
	GPUsPerNode int
	// Members is the membership view whose current ring places keys:
	// NodeOf/SplitByNode follow its epoch, so a membership change (shard
	// join/leave, promotion) re-points every component sharing the view
	// without rebuilding them. A topology built without one places by the
	// epoch-0 ring over 0..Nodes-1.
	Members *Membership
	// Replicas is the placement factor R of the replicated MEM-PS: every key
	// lives on its primary plus R-1 backups in promotion order. Zero or one
	// means unreplicated (the pre-replication behavior).
	Replicas int
}

// Validate returns an error if the topology is degenerate.
func (t Topology) Validate() error {
	if t.Nodes < 1 {
		return fmt.Errorf("cluster: need at least one node, have %d", t.Nodes)
	}
	if t.Nodes > MemberLimit {
		return fmt.Errorf("cluster: %d nodes exceed the member limit %d", t.Nodes, MemberLimit)
	}
	if t.GPUsPerNode < 1 {
		return fmt.Errorf("cluster: need at least one GPU per node, have %d", t.GPUsPerNode)
	}
	return nil
}

// TotalGPUs returns the total number of GPUs in the cluster.
func (t Topology) TotalGPUs() int { return t.Nodes * t.GPUsPerNode }

// Ring returns the ring t places by: its view's current ring or, for a
// topology built without a view, the epoch-0 ring over 0..Nodes-1. It is the
// only placement code that knows a view may be absent; WithView is the only
// other code.
func (t Topology) Ring() *Ring {
	if t.Members == nil {
		return baseRing(t.Nodes)
	}
	return t.Members.Ring()
}

// WithView returns t holding a membership view that all its copies share, so
// a change installed into the view reaches every component built from t:
// t's own view, or a new one holding the ring t places by.
func (t Topology) WithView() Topology {
	t.Members = cmp.Or(t.Members, NewMembership(t.Ring()))
	return t
}

// NodeOf returns the node that owns (is primary for) the parameter shard
// containing k.
func (t Topology) NodeOf(k keys.Key) int { return t.Ring().Owner(k) }

// BackupOf returns k's first backup, or -1 when the deployment has none
// (unreplicated, or fewer members than R).
func (t Topology) BackupOf(k keys.Key) int {
	if t.Replicas < 2 {
		return -1
	}
	return t.Ring().Backup(k)
}

// HoldsKey reports whether node is in k's replica set — the ownership check
// of the replicated MEM-PS: a backup legitimately stores and answers for keys
// whose primary is another node.
func (t Topology) HoldsKey(k keys.Key, node int) bool {
	return t.Ring().ReplicaRank(k, node, max(t.Replicas, 1)) >= 0
}

// MemberIDs returns the current member ids, sorted. The slice is shared; do
// not mutate.
func (t Topology) MemberIDs() []int { return t.Ring().Members() }

// GPUOf returns the GPU (within its node) that stores k in the HBM-PS
// partition of the current batch.
func (t Topology) GPUOf(k keys.Key) int { return k.HashShard(t.GPUsPerNode) }

// SplitByNode partitions ks by owning node, preserving input order within
// each group. The result is indexed by node id and sized to hold the largest
// member id; vacated ids stay as empty groups.
func (t Topology) SplitByNode(ks []keys.Key) [][]keys.Key {
	r := t.Ring()
	n := max(t.Nodes, 1)
	if ms := r.Members(); len(ms) > 0 {
		n = max(n, ms[len(ms)-1]+1)
	}
	out := make([][]keys.Key, n)
	for _, k := range ks {
		o := r.Owner(k)
		out[o] = append(out[o], k)
	}
	return out
}

// PullHandler serves parameter pulls for one node (implemented by the
// MEM-PS): the values of ks land in dst's flat rows, in request-key order, so
// a server encodes the whole reply in one pass. The handler owns the
// missing-key policy — the MEM-PS creates a parameter referenced for the
// first time. Handlers must be safe for concurrent use.
type PullHandler interface {
	HandlePullBlock(ks []keys.Key, dst *ps.ValueBlock) error
}

// LookupHandler is the read-only twin of PullHandler: the no-create read of
// evaluation, serving and state export. The values of the requested keys this
// node holds land in dst's rows in request-key order; a missing key is an
// absent row, never created. A lookup pins nothing and does not count as a
// training pull.
type LookupHandler interface {
	HandleLookupBlock(ks []keys.Key, dst *ps.ValueBlock) error
}

// BlockPushHandler applies a block of parameter deltas pushed by other nodes
// or a driver, consuming the parallel key/delta rows of a push frame
// directly. The MEM-PS implements it; shard servers expose it behind the
// push-block RPC.
type BlockPushHandler interface {
	HandlePushBlock(blk *ps.ValueBlock) error
}

// BlockPullWireHandler is the zero-intermediate form of PullHandler: the
// handler appends the encoded block body for ks (the exact bytes
// ps.ValueBlock.AppendWire would produce — ps.AppendWireHeader then one
// ps.AppendWireRow per requested key) directly onto dst and returns the
// extended slice. A serving tier that implements it copies each value row
// once, from its own storage into the outgoing frame, instead of staging the
// reply through an intermediate block; the TCP server prefers it for
// pull-block RPCs.
type BlockPullWireHandler interface {
	HandlePullBlockWire(ks []keys.Key, dst []byte) ([]byte, error)
}

// StampedBlockPushHandler is the replication-aware form of BlockPushHandler:
// the server hands the handler the origin client's dedup stamp alongside the
// block, so a primary that applies the push can forward the same (client, seq)
// to its backups. Servers prefer it over BlockPushHandler when implemented.
type StampedBlockPushHandler interface {
	HandlePushBlockStamped(client, seq uint64, blk *ps.ValueBlock) error
}

// ReplicaPushHandler applies a delta block a key's primary forwarded after
// applying it itself (the backup half of primary/backup replication). The
// block arrives with the origin client's dedup stamp, which the server checks
// against the same SeqTracker as direct pushes — so after a promotion, the
// origin's own retry of a push the old primary had already forwarded is
// acked, never double-applied.
type ReplicaPushHandler interface {
	HandleReplicate(blk *ps.ValueBlock) error
}

// TransferHandler imports a key-range state transfer: the block's rows are
// authoritative full values (not deltas) and are installed outright,
// returning how many rows were accepted. Transfers are idempotent — this is
// the re-replication / resharding data path.
type TransferHandler interface {
	HandleTransfer(blk *ps.ValueBlock) (int, error)
}

// MembershipHandler installs an epoch-versioned membership change (shard
// join/leave/promotion). Handlers drop updates that are not newer than the
// view they hold.
type MembershipHandler interface {
	HandleMembership(u MembershipUpdate) error
}

// EvictHandler demotes parameters out of the serving tier. ps.Tier's Evict
// satisfies it directly.
type EvictHandler interface {
	Evict(ks []keys.Key) (int, error)
}

// StatsHandler reports the serving tier's identity and uniform statistics.
// ps.Tier satisfies it directly.
type StatsHandler interface {
	Name() string
	TierStats() ps.Stats
}

// Transport is what a MEM-PS needs from its peers: pulling the partition of
// a batch's working set that other nodes own.
type Transport interface {
	// PullBlock reads ks from node nodeID into dst (request-key order),
	// returning the payload bytes that crossed the network (for time
	// accounting by the caller).
	PullBlock(nodeID int, ks []keys.Key, dst *ps.ValueBlock) (int64, error)
}

// TierTransport is the full RPC surface needed to use a remote node as a
// parameter-server tier: batched block pull and push on the hot path (flat
// ValueBlocks whose wire frames are encoded in one pass), plus the evict /
// stats / lookup operations the trainer and its reports need. Both
// LocalTransport (in-process) and TCPTransport (multi-process) implement it.
type TierTransport interface {
	Transport
	// PushBlock merges the block's parallel key/delta rows into node nodeID's
	// shard, returning the payload bytes that crossed the network.
	PushBlock(nodeID int, blk *ps.ValueBlock) (int64, error)
	// Evict demotes the given keys out of node nodeID's tier; nil demotes
	// everything evictable (the ps.Tier.Evict contract).
	Evict(nodeID int, ks []keys.Key) (int, error)
	// TierStats returns node nodeID's tier name and uniform statistics.
	TierStats(nodeID int) (ps.TierInfo, error)
	// Lookup is PullBlock through node nodeID's LookupHandler: missing keys
	// come back as absent rows instead of being materialized.
	Lookup(nodeID int, ks []keys.Key, dst *ps.ValueBlock) (int64, error)
}

// ReadBackups reads ks, whose primary failed, from each key's backup shard
// through read — a TierTransport's PullBlock or Lookup — landing the rows in
// dst (shaped for ks at dimension dim) in request-key order. It fails whole when a key has no backup, or only self —
// a shard never routes a read to itself — and when any backup read fails.
// The returned bytes sum the backup reads'.
func (t Topology) ReadBackups(self int, ks []keys.Key, dim int, dst *ps.ValueBlock,
	read func(nodeID int, ks []keys.Key, dst *ps.ValueBlock) (int64, error)) (int64, error) {
	parts := make(map[int][]int, 2) // backup -> positions in ks
	for i, k := range ks {
		b := t.BackupOf(k)
		if b < 0 || b == self {
			return 0, fmt.Errorf("cluster: key %d has no backup to read from", k)
		}
		parts[b] = append(parts[b], i)
	}
	dst.Reset(dim, ks)
	sub := ps.GetBlock(dim, nil)
	defer ps.PutBlock(sub)
	bks := make([]keys.Key, 0, len(ks))
	var total int64
	for b, at := range parts {
		bks = bks[:0]
		for _, i := range at {
			bks = append(bks, ks[i])
		}
		n, err := read(b, bks, sub)
		if err != nil {
			return 0, fmt.Errorf("backup %d: %w", b, err)
		}
		for j, i := range at {
			dst.CopyRow(i, sub, j)
		}
		total += n
	}
	return total, nil
}

// NoRoute is a Transport for processes that serve a single shard and never
// pull from peers (a shard server's MEM-PS only ever answers requests). Every
// pull fails with ErrUnknownNode.
type NoRoute struct{}

// PullBlock implements Transport.
func (NoRoute) PullBlock(nodeID int, _ []keys.Key, _ *ps.ValueBlock) (int64, error) {
	return 0, fmt.Errorf("%w: %d (transport has no routes)", ErrUnknownNode, nodeID)
}

// PayloadBytes is the model bytes of a call that names nkeys keys and moves
// rows value rows of dimension dim: 8 bytes per key, once per request (a
// pull's requested keys or a pushed block's keys), and per row its frequency
// and two fp32 arrays, the parts of a wire row that are model data. Every
// transport counts its payload this way, and the MEM-PS counts a peer pull's
// network transfer by it.
func PayloadBytes(dim, nkeys, rows int) int64 {
	return 8*int64(nkeys) + int64(rows)*int64(4+8*dim)
}
