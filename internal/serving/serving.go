// Package serving implements the online-inference tier of a shard server:
// the read path that answers Predict RPCs against the live, still-training
// parameters.
//
// The paper's models exist to serve CTR predictions; training is only half
// the system. This package is the other half, colocated with the MEM-PS so
// a shard serves the embeddings it owns without a network hop:
//
//   - Embeddings owned by this shard are read straight from the local
//     MEM-PS (cache, dump buffer, or SSD-PS — its HandleLookupBlock read).
//   - Embeddings owned by peer shards go through a read-through hot-key
//     replica cache (an LFU over the zipfian-hot heads of the key
//     distribution), falling back to the peers' lookup RPC on a miss.
//   - The dense tower runs on a local replica of the parameters, which the
//     driver republishes after every push epoch (see ServeConfig).
//
// Freshness is bounded by push-epoch invalidation: every cached replica row
// is stamped at fill time and ignored as soon as the shard applies the next
// training push or receives the next dense republish. Training pushes arrive
// once per batch, so a served score is never computed against embeddings more
// than one push epoch behind the authoritative copies — the same bound the
// dense replica obeys. The republish matters because a peer applies a push
// on its own schedule: a row fetched from a peer that has not yet applied
// this shard's latest push is stale under a current stamp, and the driver
// republishes only once every owner has applied the batch.
//
// Serving must degrade before it can stall training: requests pass an
// admission queue of fixed depth, and a request that finds the queue full is
// rejected immediately with a typed, retryable *cluster.OverloadError
// instead of waiting. Workers drain the queue greedily, coalescing queued
// requests into one scoring pass so concurrent callers share a single
// cross-shard fetch round.
package serving

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hps/internal/cache"
	"hps/internal/cluster"
	"hps/internal/keys"
	"hps/internal/nn"
	"hps/internal/ps"
)

// PeerReader reads embeddings from a peer shard by node id without
// materializing missing keys (implemented by cluster.TCPTransport.Lookup and
// cluster.LocalTransport.Lookup).
type PeerReader interface {
	Lookup(nodeID int, ks []keys.Key, dst *ps.ValueBlock) (int64, error)
}

// Config configures a serving Server.
type Config struct {
	// NodeID is this shard's node id (names the node in overload errors and
	// decides which keys are local).
	NodeID int
	// Topology routes every feature key to its owning shard.
	Topology cluster.Topology
	// Dim is the embedding dimension (the dense tower's input width).
	Dim int
	// Hidden is the dense tower's hidden-layer widths (model.Spec.HiddenLayers).
	Hidden []int
	// Local reads this shard's own embeddings (memps.MemPS implements it).
	Local cluster.LookupHandler
	// Peers reads remote-owned embeddings on replica-cache misses: the
	// shard's peer transport, which learns the peer addresses from the
	// driver (see Shard).
	Peers PeerReader
	// HotKeyEntries is the replica-cache capacity in keys (default 4096).
	HotKeyEntries int
	// MaxQueue is the admission-queue depth in requests (default 64).
	// Requests beyond it are rejected with *cluster.OverloadError.
	MaxQueue int
	// Workers is the number of scoring workers draining the queue
	// (default 2).
	Workers int
	// CoalesceBatch caps how many examples one worker merges into a single
	// scoring pass (default 512).
	CoalesceBatch int
}

// hotRow is one replica-cache entry: a cloned embedding vector (nil when the
// owner reported the key absent — a negative entry, so untrained hot keys
// don't re-fetch every request) stamped with the cache generation it was
// read at.
type hotRow struct {
	weights []float32
	gen     uint64
}

// result carries one scored request back to its waiting caller.
type result struct {
	scores []float32
	err    error
}

// job is one admitted request waiting for a scoring worker.
type job struct {
	req  cluster.PredictRequest
	done chan result
}

// Server answers Predict requests for one shard: the serving ops of
// cluster.Shard, which a Shard forwards to it. Safe for concurrent use.
type Server struct {
	cfg   Config
	queue chan *job
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once

	// pushEpoch counts training pushes applied by the colocated MEM-PS
	// (bumped by Shard). gen is the replica cache's freshness clock: it
	// advances with every push and every dense republish.
	pushEpoch atomic.Uint64
	gen       atomic.Uint64

	// netMu guards the dense replica: SetParams writes under the write lock,
	// scoring reads under RLock, so a republish never tears a forward pass.
	netMu      sync.RWMutex
	net        *nn.Network
	denseEpoch uint64
	// trainedEpoch is the trainer's trained-batch watermark from the latest
	// ServeConfig; the gap to this shard's own applied-push clock is the
	// push-epoch lag reported in ServingStats (the async-push freshness
	// metric).
	trainedEpoch uint64

	// hotMu guards the replica cache (cache.LFU is not concurrency-safe).
	hotMu sync.Mutex
	hot   *cache.LFU[hotRow]

	// Counters behind ServingStats.
	requests, examples, rejected, coalesced atomic.Int64
	localKeys, cacheHits, cacheMisses       atomic.Int64
	peerFetches, peerKeys, degraded         atomic.Int64
	failedOver                              atomic.Int64
	stalenessMax                            atomic.Uint64
}

// New starts a serving server: its workers are running and its queue is
// accepting, but predicts fail until the first ServeConfig delivers the
// dense parameters. Close releases the workers.
func New(cfg Config) (*Server, error) {
	if cfg.Local == nil || cfg.Peers == nil {
		return nil, errors.New("serving: needs a local and a peer reader")
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("serving: embedding dimension %d", cfg.Dim)
	}
	if cfg.HotKeyEntries <= 0 {
		cfg.HotKeyEntries = 4096
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.CoalesceBatch <= 0 {
		cfg.CoalesceBatch = 512
	}
	s := &Server{
		cfg:   cfg,
		queue: make(chan *job, cfg.MaxQueue),
		stop:  make(chan struct{}),
		hot:   cache.NewLFU[hotRow](cfg.HotKeyEntries, nil),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Close stops the scoring workers and fails whatever is still queued.
func (s *Server) Close() {
	s.once.Do(func() {
		close(s.stop)
		s.wg.Wait()
		for {
			select {
			case j := <-s.queue:
				j.done <- result{err: errors.New("serving: server closed")}
			default:
				return
			}
		}
	})
}

// BumpEpoch advances the push-epoch clock, invalidating every replica-cache
// entry filled before it. Shard calls it after each successfully applied
// training push.
func (s *Server) BumpEpoch() {
	s.pushEpoch.Add(1)
	s.gen.Add(1)
}

// HandleServeConfig installs the dense parameters of cfg — the initial tower,
// then a refresh after each push epoch — and invalidates the replica cache:
// the driver republishes only once every owner has applied the batch, so a
// row fetched before the republish may predate a peer's apply. The peer
// addresses are the Shard's to install.
func (s *Server) HandleServeConfig(cfg cluster.ServeConfig) error {
	if cfg.Dense != nil {
		s.netMu.Lock()
		defer s.netMu.Unlock()
		s.gen.Add(1)
		if s.net == nil {
			s.net = nn.New(nn.Config{InputDim: s.cfg.Dim, Hidden: s.cfg.Hidden})
		}
		if err := s.net.SetParams(cfg.Dense); err != nil {
			return fmt.Errorf("serving: dense replica: %w", err)
		}
		if cfg.Epoch > s.denseEpoch {
			s.denseEpoch = cfg.Epoch
		}
		if cfg.TrainedEpoch > s.trainedEpoch {
			s.trainedEpoch = cfg.TrainedEpoch
		}
	}
	return nil
}

// HandlePredict admits the request
// into the scoring queue and waits for its scores. A full queue rejects
// immediately with a typed, retryable *cluster.OverloadError — shedding
// load to the caller is the mechanism that keeps serving from stalling the
// colocated training push path.
func (s *Server) HandlePredict(req cluster.PredictRequest) ([]float32, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	j := &job{req: req, done: make(chan result, 1)}
	select {
	case s.queue <- j:
	default:
		s.rejected.Add(1)
		return nil, &cluster.OverloadError{Node: s.cfg.NodeID, Op: "predict"}
	}
	r := <-j.done
	return r.scores, r.err
}

// ServingStats snapshots the serving counters.
func (s *Server) ServingStats() cluster.ServingStats {
	s.netMu.RLock()
	denseEpoch := s.denseEpoch
	trainedEpoch := s.trainedEpoch
	s.netMu.RUnlock()
	var pushLag uint64
	if pe := s.pushEpoch.Load(); trainedEpoch > pe {
		pushLag = trainedEpoch - pe
	}
	return cluster.ServingStats{
		Requests:     s.requests.Load(),
		Examples:     s.examples.Load(),
		Rejected:     s.rejected.Load(),
		Coalesced:    s.coalesced.Load(),
		LocalKeys:    s.localKeys.Load(),
		CacheHits:    s.cacheHits.Load(),
		CacheMisses:  s.cacheMisses.Load(),
		PeerFetches:  s.peerFetches.Load(),
		PeerKeys:     s.peerKeys.Load(),
		Degraded:     s.degraded.Load(),
		FailedOver:   s.failedOver.Load(),
		PushEpoch:    s.pushEpoch.Load(),
		DenseEpoch:   denseEpoch,
		StalenessMax: s.stalenessMax.Load(),
		PushEpochLag: pushLag,
	}
}

// worker drains the admission queue. After blocking for one job it greedily
// absorbs whatever else is already queued (up to CoalesceBatch examples), so
// a burst of small requests shares one embedding-fetch round and one pass
// over the dense replica instead of paying the fetch per request.
func (s *Server) worker() {
	defer s.wg.Done()
	var (
		ib keys.IndexBuilder
		x  keys.Index
	)
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			batch := []*job{j}
			n := j.req.Examples()
		drain:
			for n < s.cfg.CoalesceBatch {
				select {
				case j2 := <-s.queue:
					batch = append(batch, j2)
					n += j2.req.Examples()
				default:
					break drain
				}
			}
			if len(batch) > 1 {
				s.coalesced.Add(int64(len(batch)))
			}
			s.score(batch, &ib, &x)
		}
	}
}

// score runs one merged scoring pass: index the batch's key occurrences
// into x with the worker's builder, fetch every distinct embedding (local
// shard, replica cache, then peers) into one block, pool per example from
// the block rows, and run the dense replica. Every job gets its reply, error
// or scores.
func (s *Server) score(batch []*job, ib *keys.IndexBuilder, x *keys.Index) {
	ib.Reset()
	for _, j := range batch {
		ib.Add(j.req.Keys)
	}
	ib.Build(x)
	blk := ps.GetBlock(s.cfg.Dim, x.Unique)
	defer ps.PutBlock(blk)
	if err := s.gather(blk); err != nil {
		for _, j := range batch {
			j.done <- result{err: err}
		}
		return
	}

	// The replica may lag the embeddings just gathered by the pushes applied
	// since the driver last republished; record the worst lag observed. The
	// push epoch is read before the dense one: both only grow, so a push that
	// lands after the gather is not counted against this pass.
	pushEpoch := s.pushEpoch.Load()
	s.netMu.RLock()
	net := s.net
	denseEpoch := s.denseEpoch
	s.netMu.RUnlock()
	if net == nil {
		for _, j := range batch {
			j.done <- result{err: errors.New("serving: no dense parameters published yet")}
		}
		return
	}
	if pushEpoch > denseEpoch {
		lag := pushEpoch - denseEpoch
		for {
			cur := s.stalenessMax.Load()
			if lag <= cur || s.stalenessMax.CompareAndSwap(cur, lag) {
				break
			}
		}
	}

	// Forward only reads the network (SetParams holds the write lock), so
	// scoring the whole merged batch under one RLock keeps a mid-batch
	// republish from mixing two epochs within a single request.
	s.netMu.RLock()
	acts := net.NewActivations()
	pooled := make([][]float32, 0, 64)
	rows := x.Rows // one row of blk per key occurrence, in batch order
	for _, j := range batch {
		scores := make([]float32, len(j.req.Counts))
		for i, c := range j.req.Counts {
			pooled = pooled[:0]
			for _, r := range rows[:c] {
				if blk.Present[r] {
					pooled = append(pooled, blk.WeightsRow(int(r)))
				}
			}
			rows = rows[c:]
			nn.PoolSum(acts.Input(), pooled)
			scores[i] = net.Forward(acts)
		}
		s.requests.Add(1)
		s.examples.Add(int64(len(j.req.Counts)))
		j.done <- result{scores: scores}
	}
	s.netMu.RUnlock()
}

// gather fills dst — shaped for the merged batch's distinct keys, in
// increasing order — with every key's current embedding: local keys from the
// shard's own MEM-PS, remote keys from the replica cache, and cache misses
// from the owning peers, filling the cache on the way back. A key no shard
// has trained yet stays an absent row.
func (s *Server) gather(dst *ps.ValueBlock) error {
	var local []keys.Key
	var remote []int // rows of dst
	for i, k := range dst.Keys {
		// HoldsKey, not NodeOf: under replication a backup stores live rows
		// for keys whose primary is another node, and serves them locally —
		// the shard keeps answering for its replica ranges even while their
		// primary is down.
		if s.cfg.Topology.HoldsKey(k, s.cfg.NodeID) {
			local = append(local, k)
		} else {
			remote = append(remote, i)
		}
	}
	sub := ps.GetBlock(s.cfg.Dim, nil)
	defer ps.PutBlock(sub)
	if len(local) > 0 {
		if err := s.cfg.Local.HandleLookupBlock(local, sub); err != nil {
			return fmt.Errorf("serving: local lookup: %w", err)
		}
		s.localKeys.Add(int64(len(local)))
		dst.ScatterRows(sub)
	}
	if len(remote) == 0 {
		return nil
	}

	// Replica cache: entries are valid only for the generation they were
	// filled in — one training push here or one dense republish invalidates
	// the lot, which is what bounds staleness to a single push epoch. The
	// generation is read before the fetch, so a republish racing the fetch
	// leaves its rows stale.
	gen := s.gen.Load()
	var miss []keys.Key
	s.hotMu.Lock()
	for _, i := range remote {
		k := dst.Keys[i]
		if row, ok := s.hot.Get(uint64(k)); ok && row.gen == gen {
			setWeights(dst, i, row.weights) // nil weights: a fresh negative entry, key untrained
			continue
		}
		miss = append(miss, k)
	}
	s.hotMu.Unlock()
	s.cacheHits.Add(int64(len(remote) - len(miss)))
	s.cacheMisses.Add(int64(len(miss)))
	if len(miss) == 0 {
		return nil
	}

	peers := s.cfg.Peers
	for owner, ks := range s.cfg.Topology.SplitByNode(miss) {
		if len(ks) == 0 {
			continue
		}
		_, err := peers.Lookup(owner, ks, sub)
		if err != nil && s.cfg.Topology.Replicas > 1 {
			// Replicated deployment: the primary is down but every key has a
			// live backup. Re-split this owner's keys by backup shard and
			// read there — the rows are fresh (the backup applies the same
			// replicated deltas), so this is a failover, not a degradation.
			// If any key has no backup but this shard, HoldsKey would have
			// served it locally: the replica set is out of step with the
			// membership view, and the read must not loop back here.
			if _, berr := s.cfg.Topology.ReadBackups(s.cfg.NodeID, ks, s.cfg.Dim, sub, peers.Lookup); berr == nil {
				s.failedOver.Add(1)
				err = nil
			}
		}
		if err != nil {
			// Degraded mode: the owner is down (crashed, restarting, or
			// unreachable) and no backup could answer. Serving stays up on
			// whatever replica rows the hot-key cache still holds — stale by
			// one or more push epochs, but a bounded-staleness score beats an
			// outage (the driver is meanwhile restarting the shard). Keys
			// with no replica row at all score as untrained, exactly like a
			// never-pushed key.
			s.degraded.Add(1)
			s.hotMu.Lock()
			for _, k := range ks {
				if row, ok := s.hot.Get(uint64(k)); ok {
					i, _ := dst.Row(k)
					setWeights(dst, i, row.weights)
				}
			}
			s.hotMu.Unlock()
			continue
		}
		s.peerFetches.Add(1)
		s.peerKeys.Add(int64(len(ks)))
		dst.ScatterRows(sub)
		s.hotMu.Lock()
		for j, k := range ks {
			// Absent keys are cached too (nil weights): a hot untrained key
			// must not re-fetch on every request.
			var w []float32
			if sub.Present[j] {
				w = slices.Clone(sub.WeightsRow(j))
			}
			s.hot.Put(uint64(k), hotRow{weights: w, gen: gen})
		}
		s.hotMu.Unlock()
	}
	return nil
}

// setWeights makes row i of dst present with the given replica-cache weights;
// nil weights (a negative entry) leave it absent.
func setWeights(dst *ps.ValueBlock, i int, w []float32) {
	if w != nil {
		copy(dst.WeightsRow(i), w)
		dst.Present[i] = true
	}
}
