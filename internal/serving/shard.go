package serving

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/hw"
	"hps/internal/memps"
	"hps/internal/ssdps"
)

// ShardConfig configures one shard server (the flags of `hps serve`).
type ShardConfig struct {
	// Addr is the address the shard listens on (port 0 picks a free port).
	Addr string
	// NodeID is the member id of the shard.
	NodeID int
	// Topology places keys over the members. The shard keeps its own
	// membership view of it, which the driver's membership updates move.
	Topology cluster.Topology
	// Dim is the embedding dimension; Hidden the dense tower's hidden-layer
	// widths (model.Spec.HiddenLayers).
	Dim    int
	Hidden []int
	// Dir holds the SSD-PS device and the push-dedup seq log. Empty means a
	// temporary directory, removed by Close.
	Dir string
	// Restore recovers the SSD-PS state already in Dir before serving.
	Restore bool
	// LRUEntries and LFUEntries size the MEM-PS cache; SSDThresholdBytes is
	// the SSD-PS disk usage that triggers compaction.
	LRUEntries, LFUEntries int
	SSDThresholdBytes      int64
	// Seed derives the MEM-PS's initial weights, exactly as the in-process
	// trainer does, so both modes initialize identically.
	Seed int64
	// HotKeyEntries, MaxQueue, Workers and CoalesceBatch configure the
	// serving tier (see Config).
	HotKeyEntries, MaxQueue, Workers, CoalesceBatch int
}

// Shard is one MEM-PS shard behind its TCP server, the node of the paper's
// cluster that answers its peers' pulls and pushes: the SSD-PS device and
// store, the MEM-PS over them, the serving tier and the replicator (which
// share one peer transport), and the push-dedup tracker with its log. It is
// the cluster.Shard the server serves (see handler.go). OpenShard is its one
// constructor.
type Shard struct {
	// Mem, Serving and Replicator are the shard's tiers, read for reports.
	Mem        *memps.MemPS
	Serving    *Server
	Replicator *memps.Replicator
	// TCP is the shard's server. Closing it alone is how a drill kills the
	// shard: the wire goes silent and nothing is flushed.
	TCP *cluster.TCPServer
	// Dir is the shard's state directory; Dropped lists the extents Restore
	// left out (torn writes, damage), and Replayed counts the applied-push
	// records the seq log replayed into the dedup tracker.
	Dir      string
	Dropped  []blockio.Dropped
	Replayed int

	dev    *blockio.Device
	peers  *cluster.TCPTransport
	seqs   *cluster.SeqTracker
	seqLog *cluster.SeqLog
	temp   bool

	// reshardMu serializes background re-replication runs so overlapping
	// membership changes stream their transfers one at a time.
	reshardMu sync.Mutex
	closeOnce sync.Once
	closeErr  error
}

// OpenShard builds the shard's stack over cfg.Dir and starts serving it on
// cfg.Addr. The serving tier is always armed: it costs two idle goroutines
// until a driver started with serving enabled publishes the dense
// parameters (predicts fail cleanly before that).
func OpenShard(cfg ShardConfig) (_ *Shard, err error) {
	s := &Shard{Dir: cfg.Dir}
	var undo []func()
	defer func() {
		if err != nil {
			for i := len(undo) - 1; i >= 0; i-- {
				undo[i]()
			}
		}
	}()
	if s.Dir == "" {
		if s.Dir, err = os.MkdirTemp("", fmt.Sprintf("hps-shard-%d-*", cfg.NodeID)); err != nil {
			return nil, err
		}
		s.temp = true
		undo = append(undo, func() { os.RemoveAll(s.Dir) })
	}
	if s.dev, err = blockio.NewDevice(s.Dir, hw.DefaultGPUNode().SSD, nil); err != nil {
		return nil, err
	}
	undo = append(undo, func() { s.dev.Close() })
	store, err := ssdps.Open(s.dev, ssdps.Config{Dim: cfg.Dim, DiskUsageThresholdBytes: cfg.SSDThresholdBytes})
	if err != nil {
		return nil, err
	}
	if cfg.Restore {
		// Crash restart: rebuild the key->file mapping from whatever the
		// previous incarnation flushed. Parameter files a dying process left
		// half-written are left out whole, never read in part.
		if s.Dropped, err = store.Recover(); err != nil {
			return nil, fmt.Errorf("recover ssd-ps in %s: %w", s.Dir, err)
		}
	}
	topo := cfg.Topology.WithView()
	s.Mem, err = memps.New(memps.Config{
		NodeID:     cfg.NodeID,
		Dim:        cfg.Dim,
		Topology:   topo,
		Transport:  cluster.NoRoute{}, // a shard server answers; it never proxies peers
		Store:      store,
		LRUEntries: cfg.LRUEntries,
		LFUEntries: cfg.LFUEntries,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	// One shared peer transport: serving failover reads through it, the
	// replicator forwards and transfers through it, and the driver's
	// membership updates and serve config teach it the peer address book (a
	// shard never knows peer addresses at boot).
	s.peers = cluster.NewTCPTransport(map[int]string{}, cfg.Dim)
	undo = append(undo, s.peers.Close)
	// The dedup tracker persists its applied (client, seq) records next to
	// the SSD-PS: after a crash restart the reloaded log keeps a retried push
	// that was already applied (and acked) by the previous incarnation from
	// being merged a second time.
	s.seqs = cluster.NewSeqTracker()
	if s.seqLog, s.Replayed, err = cluster.OpenSeqLog(filepath.Join(s.Dir, "seqlog"), s.seqs); err != nil {
		return nil, fmt.Errorf("open seq log: %w", err)
	}
	undo = append(undo, func() { s.seqLog.Close() })
	s.seqs.AttachLog(s.seqLog)
	s.Serving, err = New(Config{
		NodeID:        cfg.NodeID,
		Topology:      topo,
		Dim:           cfg.Dim,
		Hidden:        cfg.Hidden,
		Local:         s.Mem,
		Peers:         s.peers,
		HotKeyEntries: cfg.HotKeyEntries,
		MaxQueue:      cfg.MaxQueue,
		Workers:       cfg.Workers,
		CoalesceBatch: cfg.CoalesceBatch,
	})
	if err != nil {
		return nil, err
	}
	undo = append(undo, s.Serving.Close)
	s.Replicator = memps.NewReplicator(s.Mem, s.peers, memps.ReplicatorConfig{})
	undo = append(undo, s.Replicator.Close)
	if s.TCP, err = cluster.ServeTCP(cfg.Addr, s, s.seqs); err != nil {
		return nil, err
	}
	return s, nil
}

// Close shuts the shard down so a restart over Dir resumes from durable
// state: every push acked before it returns is in the flushed SSD-PS or in
// the synced seq log. It returns every failure of the sequence; a second
// call returns the first call's result.
func (s *Shard) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.close() })
	return s.closeErr
}

func (s *Shard) close() error {
	// Close the server before flushing: once the flush starts, no push may be
	// applied (and acked) that the flush would miss — an acked-but-unflushed
	// update would be silently lost on restart, because the client never
	// resends a push it got a reply for.
	errs := []error{s.TCP.Close()}
	s.Serving.Close()
	// Drain the forward queue before stopping: a backup must see every delta
	// its primary acked, or the origin's dedup stamp would mask the loss
	// forever (the retry is acknowledged as a duplicate).
	if !s.Replicator.Drain(5 * time.Second) {
		errs = append(errs, errors.New("replication queue did not drain"))
	}
	s.Replicator.Close()
	s.peers.Close()
	flushErr := s.Mem.Flush()
	errs = append(errs, flushErr, s.dev.Close())
	if flushErr == nil {
		// The flush made every applied push durable: compact the dedup log
		// down to its live window so the shard directory does not accrete one
		// record per push across incarnations.
		_, err := s.seqs.CompactLog()
		errs = append(errs, err)
	}
	// Sync the seq log last: every push acked before the server closed has
	// its record appended, and fsyncing once at shutdown (not per push) is
	// what keeps the dedup log off the push hot path.
	errs = append(errs, s.seqLog.Close())
	if s.temp {
		errs = append(errs, os.RemoveAll(s.Dir))
	}
	return errors.Join(errs...)
}
