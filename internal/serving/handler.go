package serving

import (
	"hps/internal/cluster"
	"hps/internal/keys"
	"hps/internal/ps"
)

// The wire operations of a Shard (cluster.Shard): the training operations go
// to the MEM-PS, the serving operations to the Server, and every applied
// push, replicated push and transfer advances the Server's push-epoch clock —
// the hook that invalidates the replica cache and bounds serving staleness
// to one push epoch. The write path also meets replication here: an applied
// training push is handed to the Replicator (still under the origin client's
// dedup stamp) for asynchronous forwarding to the keys' backups, and a
// membership update installs the new ring and kicks off background
// re-replication.

var _ cluster.Shard = (*Shard)(nil)

// HandlePullBlockWire serves a pull straight from the MEM-PS into the frame.
func (s *Shard) HandlePullBlockWire(ks []keys.Key, dst []byte) ([]byte, error) {
	return s.Mem.HandlePullBlockWire(ks, dst)
}

// HandleLookupBlock reads the MEM-PS without creating missing keys.
func (s *Shard) HandleLookupBlock(ks []keys.Key, dst *ps.ValueBlock) error {
	return s.Mem.HandleLookupBlock(ks, dst)
}

// HandlePushBlockStamped applies the delta block to the MEM-PS, advances the
// serving epoch, and has the Replicator forward the applied rows to each
// key's backups — still under the origin's (client, seq) stamp, so a backup
// that later takes over acknowledges the origin's own retry as a duplicate.
func (s *Shard) HandlePushBlockStamped(client, seq uint64, blk *ps.ValueBlock) error {
	if err := s.Mem.HandlePushBlock(blk); err != nil {
		return err
	}
	s.Serving.BumpEpoch()
	s.Replicator.Forward(client, seq, blk)
	return nil
}

// HandleReplicate applies a delta block some primary already applied and
// forwarded here. It advances the serving epoch like a direct push but is
// never re-forwarded — replication is one hop.
func (s *Shard) HandleReplicate(blk *ps.ValueBlock) error {
	if err := s.Mem.HandleReplicate(blk); err != nil {
		return err
	}
	s.Serving.BumpEpoch()
	return nil
}

// HandleTransfer imports authoritative full values, so any replica-cache
// entries for them are stale the moment they land.
func (s *Shard) HandleTransfer(blk *ps.ValueBlock) (int, error) {
	n, err := s.Mem.HandleTransfer(blk)
	if err == nil && n > 0 {
		s.Serving.BumpEpoch()
	}
	return n, err
}

// HandleMembership learns the new members' addresses, installs the ring in
// the shared membership view (stale epochs are dropped), and re-replicates
// in the background — streaming every key range the new ring assigns to
// members that do not hold it yet.
func (s *Shard) HandleMembership(u cluster.MembershipUpdate) error {
	if err := u.Validate(); err != nil {
		return err
	}
	for id, addr := range u.Addrs {
		s.peers.SetAddr(id, addr)
	}
	topo := s.Mem.Topology()
	old := topo.Ring()
	next := u.BuildRing()
	if !topo.Members.Update(next) {
		return nil // not newer than the installed ring: already seen
	}
	go func() {
		s.reshardMu.Lock()
		defer s.reshardMu.Unlock()
		s.Replicator.Reconcile(old, next)
	}()
	return nil
}

// Evict demotes keys out of the MEM-PS. An evict-everything call (nil ks) is
// the trainer's checkpoint flush: once it returns, every applied push is
// durable in the SSD-PS, so the push-dedup log is compacted down to the
// records still inside the dedup window — the only ones the tracker would
// consult anyway. A compaction failure degrades the log (it keeps growing,
// or dedup drops to process lifetime), it does not fail the flush.
func (s *Shard) Evict(ks []keys.Key) (int, error) {
	n, err := s.Mem.Evict(ks)
	if err == nil && ks == nil {
		s.seqs.CompactLog()
	}
	return n, err
}

// Name names the shard's tier: the MEM-PS.
func (s *Shard) Name() string { return s.Mem.Name() }

// TierStats returns the MEM-PS statistics.
func (s *Shard) TierStats() ps.Stats { return s.Mem.TierStats() }

// HandlePredict scores the request on the serving tier.
func (s *Shard) HandlePredict(req cluster.PredictRequest) ([]float32, error) {
	return s.Serving.HandlePredict(req)
}

// HandleServeConfig teaches the peer transport the addresses cfg carries and
// hands the dense parameters to the serving tier.
func (s *Shard) HandleServeConfig(cfg cluster.ServeConfig) error {
	for id, addr := range cfg.Addrs {
		s.peers.SetAddr(id, addr)
	}
	return s.Serving.HandleServeConfig(cfg)
}

// ServingStats returns the serving tier's counters.
func (s *Shard) ServingStats() cluster.ServingStats {
	return s.Serving.ServingStats()
}
