package cluster

import (
	"fmt"

	"hps/internal/keys"
)

// This file defines the online-serving RPC surface: the Predict operation a
// shard server answers while training pushes keep flowing in, plus the
// control-plane operations the driver uses to activate and observe serving.
// The handler interfaces follow the same optional-interface pattern as the
// training handlers in topology.go: a TCPServer probes its handler for them
// and rejects the operations it does not implement.

// PredictRequest is one batched inference request: Counts[i] features for
// example i, all feature keys concatenated in Keys (the CSR layout the raw
// predict frame carries). An example may legitimately have zero features.
type PredictRequest struct {
	// Counts is the per-example feature count.
	Counts []uint32
	// Keys holds every example's feature keys, concatenated in example order.
	Keys []keys.Key
}

// Examples returns the number of examples in the request.
func (r PredictRequest) Examples() int { return len(r.Counts) }

// Validate rejects requests whose counts do not account for the flat key
// slice exactly — the request may have crossed the wire from a hostile peer.
func (r PredictRequest) Validate() error {
	total := 0
	for _, c := range r.Counts {
		total += int(c)
		if total > len(r.Keys) {
			break
		}
	}
	if total != len(r.Keys) {
		return fmt.Errorf("cluster: predict counts sum to %d but %d keys given", total, len(r.Keys))
	}
	return nil
}

// ServeConfig activates (or refreshes) the serving tier on a shard server.
// The driver sends the full form — peer addresses plus the dense tower —
// once at startup, then republishes just the dense parameters after every
// push epoch so served scores track the training run.
type ServeConfig struct {
	// Addrs maps every shard id to its address, so the shard can pull
	// remote-owned embeddings from its peers. Nil after the first call.
	Addrs map[int]string
	// Dense is the flattened dense-tower parameters (nn.FlattenParams order).
	Dense []float32
	// Epoch is the training push epoch the dense parameters belong to; the
	// shard reports serving staleness against it.
	Epoch uint64
	// TrainedEpoch is the trainer's trained-batch watermark when this config
	// was published. With async push it runs ahead of Epoch by the pushes
	// still parked in the trainer's committer; shards report the gap between
	// it and their own applied-push clock as PushEpochLag — the freshness
	// cost of the asynchronous pipeline, surfaced to serving.
	TrainedEpoch uint64
}

// ServingStats summarizes a shard server's serving-tier activity: the
// counters behind the report's QPS/hit-rate/staleness section.
type ServingStats struct {
	// Requests / Examples count served predict RPCs and the examples they
	// scored; Rejected counts admission-queue rejections.
	Requests, Examples, Rejected int64
	// Coalesced counts requests that were scored as part of a larger merged
	// batch (request coalescing under load).
	Coalesced int64
	// LocalKeys counts embedding reads served from this shard's own MEM-PS.
	LocalKeys int64
	// CacheHits / CacheMisses count hot-key replica cache lookups for
	// remote-owned embeddings.
	CacheHits, CacheMisses int64
	// PeerFetches / PeerKeys count the lookup RPCs (and keys) that went to
	// peer shards on replica-cache misses.
	PeerFetches, PeerKeys int64
	// Degraded counts peer fetches that failed (owner down or unreachable)
	// and were answered from stale hot-key replica rows instead.
	Degraded int64
	// FailedOver counts peer fetches whose primary was unreachable but whose
	// keys were answered fresh by their backup shards — the replicated
	// deployments' alternative to a Degraded (stale) answer.
	FailedOver int64
	// PushEpoch is how many training pushes this shard has applied;
	// DenseEpoch is the epoch of the dense replica it scores with.
	PushEpoch, DenseEpoch uint64
	// StalenessMax is the largest push-epoch lag of the dense replica
	// observed at scoring time (bounded by one epoch when the driver
	// republishes after every push).
	StalenessMax uint64
	// PushEpochLag is how many batches the trainer has trained beyond the
	// pushes this shard has applied (trained watermark minus PushEpoch) — 0
	// in synchronous mode, bounded by pipeline depth-1 plus the push-lag
	// budget in async-push mode.
	PushEpochLag uint64
}

// Add returns the element-wise aggregate of two shards' serving stats
// (epochs and staleness take the max — they are watermarks, not counters).
func (s ServingStats) Add(o ServingStats) ServingStats {
	s.Requests += o.Requests
	s.Examples += o.Examples
	s.Rejected += o.Rejected
	s.Coalesced += o.Coalesced
	s.LocalKeys += o.LocalKeys
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.PeerFetches += o.PeerFetches
	s.PeerKeys += o.PeerKeys
	s.Degraded += o.Degraded
	s.FailedOver += o.FailedOver
	s.PushEpoch = max(s.PushEpoch, o.PushEpoch)
	s.DenseEpoch = max(s.DenseEpoch, o.DenseEpoch)
	s.StalenessMax = max(s.StalenessMax, o.StalenessMax)
	s.PushEpochLag = max(s.PushEpochLag, o.PushEpochLag)
	return s
}

// CacheHitRate returns the replica-cache hit rate, or 0 when nothing was
// looked up.
func (s ServingStats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}
