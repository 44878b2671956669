// Package trainer composes the three parameter-server tiers into the paper's
// end-to-end hierarchical training system (Sections 3-6): training batches
// stream from HDFS, the MEM-PS of every node resolves and pins the batch's
// working parameters it owns (pulling cold ones from its SSD-PS) and hands
// each node the ones it references, the HBM-PS loads the working set into
// the node's GPUs,
// per-GPU workers train with concurrent batched pull/push against the HBM-PS,
// and the collected updates are synchronized across nodes and merged back
// into the authoritative MEM-PS copies, which demote cold parameters to the
// SSD-PS as memory fills.
//
// The four batch phases — read, pull, train, push — run as the prefetch
// pipeline of Section 3 (internal/pipeline), so the steady-state batch
// latency is governed by the slowest stage. MaxInFlight bounds how many
// batches lie between their pull and their push: 1 reproduces the strict
// parameter ordering of Algorithm 1 (and the accuracy oracle of Fig 3b) —
// batch N+1 pulls only after batch N has pushed — and larger values buy
// throughput at the price of parameters at most MaxInFlight-1 batches stale,
// which is the trade the paper's pipeline makes. The read stage touches no
// parameter, so it runs one batch ahead of that bound at every depth: at
// depth 1 the next batch is read and indexed while the current one trains.
//
// # The batched hot path
//
// Parameter movement is batched end to end: stagePull assembles each node's
// working set into a flat ps.ValueBlock (one row per unique key, no per-value
// map) — every owner resolves the batch's keys it holds once for all nodes,
// copying each value into the row of every block that wants it (owner.go: one
// contract for a node's MEM-PS in process and for a shard server process over
// TCP) — stageTrain loads that block straight into the HBM-PS, and each GPU
// worker issues exactly one block pull and one block commit per mini-batch —
// it pulls its shard's keys into a reused ValueBlock, addresses every
// example's features by row offset, applies the sparse optimizer to the block
// in place once per row, and commits the result. The CPU partitions a batch's
// keys once: stageRead builds the node-batch's keys.Index (sorted unique keys
// plus each feature occurrence's row), stagePull pulls its Unique set, and a
// GPU worker derives its shard's key set and row offsets from it by marking —
// no stage sorts or searches again. All scratch (blocks, indexes,
// activations, offset buffers) is pooled or owned by the node or GPU worker,
// so steady-state batches allocate close to nothing.
//
// # One step per batch
//
// Every coordinate takes one optimizer step per batch (Algorithm 1: each GPU
// trains a mini-batch, and the dense gradients meet in an all-reduce). A GPU
// worker reads the parameters as the batch found them: it accumulates the
// dense gradient into its own nn.Gradients, reading the one stored tower
// (Trainer.net) without a lock, and each row's sparse gradient into a slab
// beside its block, then applies the sparse optimizer once per row and
// commits the block. Once every worker of every node has finished,
// stageTrain sums their dense gradients and applies Adagrad to the stored
// tower once, under denseMu — the lock Predict, the checkpoint and the
// serving republish read it under. stageTrain runs on one pipeline goroutine,
// so the tower is never stale: batch N+1's workers start after batch N's
// dense step. With one GPU the arithmetic is bit-identical to
// reference.Trainer.TrainBatch.
package trainer

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/hw"
	"hps/internal/interconnect"
	"hps/internal/metrics"
	"hps/internal/model"
	"hps/internal/nn"
	"hps/internal/optimizer"
	"hps/internal/pipeline"
	"hps/internal/ps"
)

// Stage names of the 4-stage batch pipeline.
const (
	StageRead  = "read"
	StagePull  = "pull"
	StageTrain = "train"
	StagePush  = "push"
)

// Config configures the hierarchical trainer.
type Config struct {
	// Spec is the model being trained (embedding dim, dense tower, per-example
	// non-zeros). Required.
	Spec model.Spec
	// Data describes the training distribution; the zero value derives it
	// from Spec via dataset.ForModel.
	Data dataset.Config
	// Topology is the cluster shape. The zero value means 1 node x 1 GPU.
	Topology cluster.Topology
	// BatchSize is the per-node examples per batch (default 256).
	BatchSize int
	// Batches is the number of batches each node trains on. Required > 0.
	Batches int
	// MaxInFlight bounds how many batches may be between their pull and their
	// push at once. 1 (the default) reproduces Algorithm 1's strict parameter
	// ordering; larger values overlap the parameter stages as in Section 3.
	// The read stage runs one batch further ahead at every depth.
	MaxInFlight int
	// Profile describes each node's hardware; the zero value uses
	// hw.DefaultGPUNode.
	Profile hw.NodeProfile
	// SparseLR / DenseLR are the Adagrad learning rates (defaults 0.05/0.01,
	// matching internal/reference).
	SparseLR, DenseLR float32
	// LRUEntries / LFUEntries set each node's MEM-PS cache level capacities;
	// when zero they are derived from Profile.MainMemoryBytes.
	LRUEntries, LFUEntries int
	// ParamsPerFile is the SSD-PS file granularity (default 256).
	ParamsPerFile int
	// SSDThresholdBytes triggers SSD-PS compaction; 0 uses device capacity.
	SSDThresholdBytes int64
	// Dir is the root directory for the per-node SSD-PS devices; "" creates
	// (and owns) a temporary directory removed by Close.
	Dir string
	// Seed seeds model initialization and the per-node data streams.
	Seed int64
	// RemoteShards switches the trainer into multi-process mode: the MEM-PS
	// tier lives in separate shard-server processes, and RemoteShards maps
	// each shard id to the TCP address serving it: one per member of the
	// topology's ring, however many members it has. Each shard is one owner
	// (owner.go). The driver keeps the data streams, the GPUs and the dense
	// tower; every parameter pull and push crosses a real socket.
	RemoteShards map[int]string
	// RemoteRetry overrides the TCP transport's retry policy in
	// multi-process mode; the zero value keeps the default.
	RemoteRetry cluster.RetryPolicy
	// WirePrecision names the on-wire row encoding. The wire carries fp32
	// rows only, so New accepts "" or "fp32" and refuses anything else. The
	// field remains only because the benchmark's workloads
	// (bench/workloads.go) set it; it goes with them.
	WirePrecision string
	// Serve activates the shard servers' online-serving tier (multi-process
	// mode only): the trainer publishes the peer address map and the dense
	// tower to every shard at startup, then republishes the dense parameters
	// after every push epoch so served scores track the training run with at
	// most one push epoch of staleness.
	Serve bool
	// CheckpointPath, when non-empty, is the manifest file the trainer's
	// durable driver-side state (dense tower, optimizer state, LRs, batch
	// cursor, shard state locations) is written to — atomically, on every
	// Flush and every CheckpointInterval batches. See checkpoint.go.
	CheckpointPath string
	// CheckpointInterval cuts a full checkpoint (shard flush + manifest)
	// every N completed batches; 0 checkpoints only on Flush/Close.
	CheckpointInterval int
	// ShardState optionally names each shard's durable-state directory for
	// the manifest (the driver passes the shard servers' -dir roots); when
	// empty the trainer derives it (local node dirs, or shard addresses).
	ShardState map[int]string
	// BatchPause inserts a wall-clock pause after each completed batch. It
	// exists for crash-restart drills (CI kills a shard mid-run and needs
	// the run to still be going) and staleness experiments; leave zero for
	// real training.
	BatchPause time.Duration
	// AsyncPush moves the apply half of the push stage onto a bounded
	// background committer: the pipeline token returns before the MEM-PS
	// round trip, buying throughput at the price of parameters up to
	// depth-1+PushLag batches stale. Flush/checkpoint/Close drain the
	// committer first, so durability and restore semantics are unchanged.
	AsyncPush bool
	// PushLag bounds how many pushes may be outstanding in the background
	// committer (default 2). Only meaningful with AsyncPush.
	PushLag int
}

func (c Config) withDefaults() Config {
	if c.Topology.Nodes == 0 && c.Topology.GPUsPerNode == 0 {
		c.Topology = cluster.Topology{Nodes: 1, GPUsPerNode: 1}
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 1
	}
	if c.Profile.GPU.FLOPS == 0 {
		c.Profile = hw.DefaultGPUNode()
	}
	if c.SparseLR <= 0 {
		c.SparseLR = 0.05
	}
	if c.DenseLR <= 0 {
		c.DenseLR = 0.01
	}
	if c.ParamsPerFile <= 0 {
		c.ParamsPerFile = 256
	}
	if c.PushLag <= 0 {
		c.PushLag = 2
	}
	if c.Data.NumFeatures == 0 {
		c.Data = dataset.ForModel(c.Spec.SparseParams, c.Spec.NonZerosPerExample)
	}
	return c
}

// Trainer is the end-to-end hierarchical training system.
type Trainer struct {
	cfg Config
	// work counts everything the run's tiers do, for the report's time
	// distribution; the MEM-PS tiers count their peer transfers into it
	// through fabric.
	work   *hw.Counter
	fabric *interconnect.Fabric
	nodes  []*node

	// Multi-process mode: the shared TCP transport to the shard servers and
	// the real-network accounting, nil for in-process runs.
	remote    *cluster.TCPTransport
	remoteNet *remoteNet

	// owners is the owner table (owner.go): every owner the trainer has
	// addressed, indexed by owner id — each node's MEM-PS in process, one
	// remoteShard per ring member in multi-process mode. UpdateMembership
	// replaces it under ownersMu — never edits it, so a slice read under the
	// lock stays valid — before it installs a ring naming a new member, and a
	// batch's owner split holds ownersMu, so every owner the ring names has
	// an entry.
	ownersMu sync.Mutex
	owners   []owner
	// pulls recycles the batches' pulls: stagePull takes one, and the push
	// hands it back once every owner has completed the batch. It has a slot
	// for every batch that may lie between the two, the ones parked in the
	// async committer included.
	pulls chan []ownedPull

	// net and denseState are the one dense tower and its optimizer state
	// (package comment, "One step per batch"). The GPU workers read net
	// without a lock while a batch trains; denseStep writes both under
	// denseMu, which also guards every other reader and denseSteps, the count
	// of dense steps taken.
	denseMu    sync.Mutex
	net        *nn.Network
	denseState *nn.DenseState
	denseSteps int64
	denseOpt   optimizer.Dense
	sparseOpt  optimizer.Sparse
	evalActs   *nn.Activations

	pipe *pipeline.Pipeline[*job]

	// stageDelay injects an artificial wall-clock delay per stage; it is a
	// test hook for exercising pipeline overlap with controlled timings.
	stageDelay map[string]time.Duration

	// stageEvent, when set, is told of every batch admitted by the source
	// (stage "admit"), entering (enter true) and leaving each stage function,
	// and reaching the sink (stage "sink", before its depth slot is
	// released); a test hook that states the depth contract as an order of
	// events rather than a timing. A stage enters after its Admit wait.
	stageEvent func(stage string, batch int, enter bool)

	// sequential makes each visit nodes and owners in order instead of
	// concurrently; a test hook that removes scheduling nondeterminism (the
	// interleaving of per-node parameter creation) so equivalence tests can
	// compare two runs at a tight tolerance.
	sequential bool

	// denseFlat is the reused dense-parameter flatten buffer for serving
	// republish; only the republish path — stagePush (single pipeline
	// goroutine) in synchronous mode, the committer goroutine in async-push
	// mode, exactly one of which is active — and New touch it.
	denseFlat []float32

	// committer is the bounded background push committer, nil unless
	// cfg.AsyncPush.
	committer *pushCommitter

	// trainedEpoch is the trained-batch watermark (index of the last batch
	// through stageTrain + 1); it rides on ServeConfig so the serving tier
	// can report how far its parameters trail training.
	trainedEpoch atomic.Uint64

	// pullBlocks and pullCursors are stagePull's in-process scratch: every
	// node's block of the batch, in node order, and the per-node cursors of
	// the owner split. The pipeline runs the stage on a single goroutine.
	pullBlocks  []*ps.ValueBlock
	pullCursors []int

	// mergeScratch reuses the delta-merge state across batches; it is only
	// touched by stagePush, which the pipeline runs on a single goroutine.
	mergeScratch struct {
		blocks  []*ps.ValueBlock
		cursors []int
		pair    pairMerge
	}

	mu            sync.Mutex
	stageModelled map[string]time.Duration
	allReduce     hw.Work
	loss          metrics.LogLossAccumulator
	examples      int64
	batchesDone   int64
	// restored is the batch cursor loaded by Restore: Run trains only the
	// remaining cfg.Batches - restored batches, with job indices (and thus
	// serve epochs) continuing where the checkpointed run stopped.
	restored int

	tmpDir  string
	ownsDir bool
	closed  bool
}

// New builds the full hierarchy for the configured topology. Call Close to
// flush the MEM-PS tiers and release the SSD-PS directories.
func New(cfg Config) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if cfg.Spec.EmbeddingDim <= 0 {
		return nil, fmt.Errorf("trainer: model spec has no embedding dimension")
	}
	if cfg.WirePrecision != "" && cfg.WirePrecision != "fp32" {
		return nil, fmt.Errorf("trainer: wire precision %q is not spoken; the wire carries fp32 rows only", cfg.WirePrecision)
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	cfg.Topology = cfg.Topology.WithView()
	if err := cfg.Data.Validate(); err != nil {
		return nil, err
	}
	dim := cfg.Spec.EmbeddingDim
	remoteMode := len(cfg.RemoteShards) > 0
	if remoteMode {
		for _, id := range cfg.Topology.MemberIDs() {
			if _, ok := cfg.RemoteShards[id]; !ok {
				return nil, fmt.Errorf("trainer: no remote shard address for member %d", id)
			}
		}
	} else if cfg.Topology.Replicas > 1 {
		// In process every key is resolved, pinned and updated at its one
		// owner (stagePull, stagePush); nothing would keep backup copies.
		return nil, fmt.Errorf("trainer: %d replicas need multi-process mode (RemoteShards)", cfg.Topology.Replicas)
	}

	dir := cfg.Dir
	ownsDir := false
	if dir == "" && !remoteMode { // remote mode has no local SSD-PS state
		d, err := os.MkdirTemp("", "hps-trainer-*")
		if err != nil {
			return nil, fmt.Errorf("trainer: temp dir: %w", err)
		}
		dir, ownsDir = d, true
	}

	work := hw.NewCounter()
	t := &Trainer{
		cfg:           cfg,
		work:          work,
		fabric:        interconnect.NewFabric(cfg.Profile, work),
		denseOpt:      optimizer.Adagrad{LR: cfg.DenseLR, InitialAccumulator: 0.1},
		sparseOpt:     optimizer.Adagrad{LR: cfg.SparseLR, InitialAccumulator: 0.1},
		stageModelled: make(map[string]time.Duration),
		pulls:         make(chan []ownedPull, cfg.MaxInFlight+cfg.PushLag),
		tmpDir:        dir,
		ownsDir:       ownsDir,
	}
	t.net = nn.New(nn.Config{InputDim: dim, Hidden: cfg.Spec.HiddenLayers, Seed: cfg.Seed})
	t.denseState = t.net.NewDenseState(t.denseOpt)
	t.evalActs = t.net.NewActivations()

	if remoteMode {
		t.remote = cluster.NewTCPTransport(cfg.RemoteShards, dim)
		if cfg.RemoteRetry.Attempts > 0 {
			t.remote.SetRetryPolicy(cfg.RemoteRetry)
		}
		t.remoteNet = &remoteNet{}
		t.owners = t.newRemoteShards(nil, cfg.Topology.MemberIDs())
	}
	cleanup := func() {
		t.closeDevices()
		if ownsDir {
			os.RemoveAll(dir)
		}
	}
	for id := 0; id < cfg.Topology.Nodes; id++ {
		n, err := t.buildNode(id, dir, !remoteMode)
		if err != nil {
			cleanup()
			return nil, err
		}
		t.nodes = append(t.nodes, n)
		if n.local != nil {
			t.owners = append(t.owners, localOwner{n.local, id})
		}
	}
	if cfg.Serve {
		if t.remote == nil {
			cleanup()
			return nil, fmt.Errorf("trainer: Serve requires multi-process mode (RemoteShards)")
		}
		// Activate the serving tier: the first (and only full) ServeConfig
		// carries the peer address map — so each shard can read remote-owned
		// embeddings on replica-cache misses — plus the initial dense tower.
		// Failing here is deliberate: a shard that cannot serve should fail
		// the run at startup, not at first query.
		t.denseFlat = t.net.FlattenParams(t.denseFlat[:0])
		scfg := cluster.ServeConfig{Addrs: cfg.RemoteShards, Dense: t.denseFlat, Epoch: 0}
		for _, id := range cfg.Topology.MemberIDs() {
			if err := t.remote.PublishServeConfig(id, scfg); err != nil {
				cleanup()
				return nil, fmt.Errorf("trainer: activate serving on shard %d: %w", id, err)
			}
		}
	}
	if cfg.AsyncPush {
		t.committer = newPushCommitter(t, cfg.PushLag)
	}
	return t, nil
}

// Examples returns the number of examples trained across all nodes.
func (t *Trainer) Examples() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.examples
}

// Tiers returns each tier's uniform statistics aggregated across nodes, top
// tier first (plus the SSD-PS device-level store stats via Report). In
// multi-process mode the MEM-PS statistics are fetched from the shard
// servers over the wire, and the SSD-PS row is absent — the stores live in
// the shard processes.
func (t *Trainer) Tiers() []ps.TierInfo {
	var hbm, mem, ssd ps.Stats
	for _, n := range t.nodes {
		hbm = hbm.Add(n.hbm.TierStats())
		if n.store != nil {
			ssd = ssd.Add(n.store.TierStats())
		}
	}
	for _, o := range t.memberOwners() {
		mem = mem.Add(o.TierStats())
	}
	out := []ps.TierInfo{
		{Name: t.nodes[0].hbm.Name(), Stats: hbm},
		{Name: "mem-ps", Stats: mem},
	}
	if t.nodes[0].store != nil {
		out = append(out, ps.TierInfo{Name: t.nodes[0].store.Name(), Stats: ssd})
	}
	return out
}

// Flush persists every node's in-memory parameters to its SSD-PS, then
// writes the checkpoint manifest when one is configured — the flush must
// come first, so the shard state the manifest describes is on disk before
// the manifest claims it is. Each MEM-PS flush waits out its background
// write and fsyncs its SSD-PS (in-process nodes and shard servers alike), so
// the manifest only ever names synced extents.
func (t *Trainer) Flush() error {
	if t.committer != nil {
		// Every acked push must be applied before the shards flush: the
		// manifest written below claims the flushed state covers the batch
		// cursor, and an un-applied push would silently miss the cut.
		if err := t.committer.drain(); err != nil {
			return err
		}
	}
	if err := t.eachOwner(t.memberOwners(), owner.Flush); err != nil {
		return err
	}
	if t.cfg.CheckpointPath == "" {
		return nil
	}
	return t.writeManifest()
}

// SetShardAddr repoints shard id's connections at addr. The driver calls it
// after restarting a crashed shard process on a fresh port; in-flight RPCs to
// the old address fail and are retried against the new one under the
// configured retry policy. It is a no-op for in-process shards.
func (t *Trainer) SetShardAddr(id int, addr string) {
	if t.remote == nil {
		return
	}
	t.remote.SetAddr(id, addr)
}

// closeDevices closes the SSD-PS device of every local node and returns the
// first failure.
func (t *Trainer) closeDevices() error {
	var first error
	for _, n := range t.nodes {
		if n.dev == nil {
			continue
		}
		if err := n.dev.Close(); err != nil && first == nil {
			first = fmt.Errorf("trainer: node %d: %w", n.id, err)
		}
	}
	return first
}

// Close flushes the hierarchy, closes the remote transport (in multi-process
// mode) and the SSD-PS devices, and removes the SSD-PS directories the
// trainer created. When the flush fails, the directories are preserved —
// whatever the flush did manage to write is the only durable copy of the
// model, and the error reports where it lives. Close is idempotent.
func (t *Trainer) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	err := t.Flush()
	if t.committer != nil {
		t.committer.close() // Flush drained it; stop the goroutine
	}
	if t.remote != nil {
		t.remote.Close()
	}
	if cerr := t.closeDevices(); err == nil {
		err = cerr
	}
	if t.ownsDir {
		if err != nil {
			err = fmt.Errorf("%w (SSD-PS state preserved at %s)", err, t.tmpDir)
		} else if rmErr := os.RemoveAll(t.tmpDir); rmErr != nil {
			err = rmErr
		}
	}
	return err
}
