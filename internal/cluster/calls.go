package cluster

import (
	"encoding/binary"
	"fmt"

	"hps/internal/keys"
	"hps/internal/ps"
)

// The typed client side of each wire op: every method is one rawCall with the
// op's request builder and reply parser from ops.go.

// pullInto runs a pull-layout read (pull-block or lookup): the request is a
// length-prefixed key frame and the reply body is decoded directly out of
// the pooled receive buffer into dst, in request-key order. The returned
// byte count is the model traffic; Stats().WireIn/WireOut expose what
// actually crossed the socket.
func (t *TCPTransport) pullInto(nodeID int, op uint8, ks []keys.Key, dst *ps.ValueBlock) (int64, error) {
	err := t.rawCall(nodeID, op,
		func(frame []byte) []byte { return appendRawKeyReq(frame, op, 0, ks) },
		func(body []byte) error { return dst.DecodeWire(ks, body) })
	if err != nil {
		return 0, err
	}
	if dst.Dim == 0 && t.dim > 0 {
		// An all-missing lookup reply carries no dimension to infer; re-shape
		// to the transport's so absent rows read as zeroed dim-d rows, per
		// the PullInto contract.
		dst.Reset(t.dim, ks)
	}
	reqBytes, respBytes := int64(len(ks))*8, rowBytes(t.dim, dst.PresentCount())
	t.addBytes(reqBytes, respBytes)
	return reqBytes + respBytes, nil
}

// PullBlock implements Transport: the reply arrives as one flat block
// body, encoded in a single pass server-side.
func (t *TCPTransport) PullBlock(nodeID int, ks []keys.Key, dst *ps.ValueBlock) (int64, error) {
	return t.pullInto(nodeID, rawOpPullBlock, ks, dst)
}

// Lookup implements TierTransport: a pull that never materializes missing
// parameters, for evaluation-time and serving reads.
func (t *TCPTransport) Lookup(nodeID int, ks []keys.Key, dst *ps.ValueBlock) (int64, error) {
	return t.pullInto(nodeID, rawOpLookup, ks, dst)
}

// sendBlock runs a push-layout write (push-block, replicate, transfer): the
// block's rows travel as one flat frame under the given dedup stamp.
func (t *TCPTransport) sendBlock(nodeID int, op uint8, client, seq uint64, blk *ps.ValueBlock, parse func([]byte) error) (int64, error) {
	err := t.rawCall(nodeID, op, func(frame []byte) []byte {
		return blk.AppendWire(appendRawBlockReq(frame, op, client, seq, blk.Keys))
	}, parse)
	if err != nil {
		return 0, err
	}
	bytes := rowBytes(t.dim, blk.PresentCount())
	t.addBytes(bytes, 0)
	return bytes, nil
}

// PushBlock implements TierTransport: the push is stamped with a dedup
// sequence, so a push-block retried across a reconnect is applied exactly
// once (the sequence is assigned once, before the retry loop, for that
// reason).
func (t *TCPTransport) PushBlock(nodeID int, blk *ps.ValueBlock) (int64, error) {
	client, seq := t.Stamp()
	return t.PushBlockStamped(nodeID, client, seq, blk)
}

// Stamp allocates a fresh push dedup stamp. Callers that need to fail a push
// over to a key's backup take the stamp first, so the failover delivery (via
// Replicate) carries the same identity as the failed push and a backup that
// already received the primary's forward of it dedups instead of
// double-applying.
func (t *TCPTransport) Stamp() (client, seq uint64) {
	return t.client, t.seq.Add(1)
}

// PushBlockStamped is PushBlock under a caller-provided dedup stamp.
func (t *TCPTransport) PushBlockStamped(nodeID int, client, seq uint64, blk *ps.ValueBlock) (int64, error) {
	return t.sendBlock(nodeID, rawOpPushBlock, client, seq, blk, nil)
}

// Replicate forwards an applied delta block to nodeID (a backup of the
// block's keys), carrying the ORIGIN client's dedup stamp instead of this
// transport's own — the backup commits (client, seq) to its tracker, so after
// a promotion the origin's retry of the same push is deduplicated, not
// double-applied. Retries are safe for the same reason direct pushes are: the
// stamp makes the apply exactly-once.
func (t *TCPTransport) Replicate(nodeID int, client, seq uint64, blk *ps.ValueBlock) (int64, error) {
	return t.sendBlock(nodeID, rawOpReplicate, client, seq, blk, nil)
}

// parseRawCount returns a parser for the u64 count reply of evict/transfer.
func parseRawCount(n *int) func([]byte) error {
	return func(body []byte) error {
		if len(body) != 8 {
			return fmt.Errorf("count reply of %d bytes", len(body))
		}
		*n = int(le.Uint64(body))
		return nil
	}
}

// Transfer installs the block's rows on nodeID outright (set semantics, not
// delta merge): the re-replication / resharding data path. It is idempotent,
// so the transport's normal retries need no dedup stamp. It returns how many
// rows the receiver accepted.
func (t *TCPTransport) Transfer(nodeID int, blk *ps.ValueBlock) (int, error) {
	var n int
	_, err := t.sendBlock(nodeID, rawOpTransfer, 0, 0, blk, parseRawCount(&n))
	return n, err
}

// Evict implements TierTransport.
func (t *TCPTransport) Evict(nodeID int, ks []keys.Key) (int, error) {
	var flags uint8
	if ks == nil {
		flags = rawFlagAll
	}
	var n int
	err := t.rawCall(nodeID, rawOpEvict,
		func(frame []byte) []byte { return appendRawKeyReq(frame, rawOpEvict, flags, ks) },
		parseRawCount(&n))
	return n, err
}

// bareReq builds a request that is just its header.
func bareReq(op uint8) func([]byte) []byte {
	return func(frame []byte) []byte { return append(frame, op, 0, 0, 0) }
}

// TierStats implements TierTransport.
func (t *TCPTransport) TierStats(nodeID int) (ps.TierInfo, error) {
	var info ps.TierInfo
	err := t.rawCall(nodeID, rawOpStats, bareReq(rawOpStats), func(body []byte) error {
		n, err := binary.Decode(body, le, &info.Stats)
		if err != nil {
			return fmt.Errorf("stats reply of %d bytes: %w", len(body), err)
		}
		info.Name = string(body[n:])
		return nil
	})
	return info, err
}

// UpdateMembership installs an epoch-versioned membership change on nodeID.
func (t *TCPTransport) UpdateMembership(nodeID int, u MembershipUpdate) error {
	return t.rawCall(nodeID, rawOpMembership,
		func(frame []byte) []byte { return appendRawMembership(frame, u) }, nil)
}

// Predict scores one batched inference request against nodeID's shard: counts
// and keys out, scores back. An admission rejection surfaces as a typed
// *OverloadError: retryable by the caller after backoff, but never retried
// internally — admission control exists to shed load to the caller, and an
// internal retry loop would defeat it.
func (t *TCPTransport) Predict(nodeID int, req PredictRequest) ([]float32, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	var scores []float32
	err := t.rawCall(nodeID, rawOpPredict,
		func(frame []byte) []byte { return appendRawPredictReq(frame, req) },
		func(body []byte) (err error) {
			scores, err = parseRawScores(body)
			return err
		})
	return scores, err
}

// PublishServeConfig sends serving-tier configuration (peer addresses and/or
// refreshed dense parameters) to nodeID's shard.
func (t *TCPTransport) PublishServeConfig(nodeID int, cfg ServeConfig) error {
	return t.rawCall(nodeID, rawOpServeConfig,
		func(frame []byte) []byte { return appendRawServeConfig(frame, cfg) }, nil)
}

// ServingStats reads nodeID's serving-tier counters.
func (t *TCPTransport) ServingStats(nodeID int) (ServingStats, error) {
	var st ServingStats
	err := t.rawCall(nodeID, rawOpServeStats, bareReq(rawOpServeStats), func(body []byte) error {
		if _, err := binary.Decode(body, le, &st); err != nil {
			return fmt.Errorf("serve-stats reply of %d bytes: %w", len(body), err)
		}
		return nil
	})
	return st, err
}
