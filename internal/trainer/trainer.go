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
// in place, and commits the accumulated result. The CPU partitions a batch's
// keys once: stageRead builds the node-batch's keys.Index (sorted unique keys
// plus each feature occurrence's row), stagePull pulls its Unique set, and a
// GPU worker derives its shard's key set and row offsets from it by marking —
// no stage sorts or searches again. All scratch (blocks, indexes,
// activations, offset buffers) is pooled or owned by the node or GPU worker,
// so steady-state batches allocate close to nothing.
//
// # Dense-tower staleness
//
// Every GPU worker holds its own replica of the dense tower and its Adagrad
// state (the paper pins the dense parameters in every GPU's HBM, Appendix
// C.4); Trainer.net and Trainer.denseState are the stored copy the replicas
// sync through, which is also what Predict, the checkpoint and the serving
// republish read. Replicas sync every denseMicroRun examples: a worker checks
// its replica out of the stored copy, trains the run on it with no lock held,
// and commits stored = final + (stored - orig) under denseMu — the formula and
// exactness argument of hbmps.CommitBlock, so one rule syncs the sparse rows
// (once per batch) and the dense tower (once per micro-run). A replica can
// miss at most what its peers trained since its check-out; every worker has
// committed by the barrier that ends trainOnGPUs, so the next batch's first
// check-out sees everything — the bound the sparse rows already accept. With
// a single GPU (or the sequential test hook) no peer commits in between: the
// correction term is an exact zero, the check-out copies nothing, and the
// arithmetic is bit-identical to training the stored copy in place.
package trainer

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/embedding"
	"hps/internal/hbmps"
	"hps/internal/hdfs"
	"hps/internal/hw"
	"hps/internal/interconnect"
	"hps/internal/keys"
	"hps/internal/memps"
	"hps/internal/metrics"
	"hps/internal/model"
	"hps/internal/nn"
	"hps/internal/optimizer"
	"hps/internal/pipeline"
	"hps/internal/ps"
	"hps/internal/simtime"
	"hps/internal/ssdps"
	"hps/internal/tensor"
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
	// each shard id to the TCP address serving it: one per node id under
	// modulo placement, one per ring member under Topology.Members, however
	// many members the ring has. Each shard is one owner (owner.go). The
	// driver keeps the data streams, the GPUs and the dense tower; every
	// parameter pull and push crosses a real socket.
	RemoteShards map[int]string
	// RemoteRetry overrides the TCP transport's retry policy in
	// multi-process mode; the zero value keeps the default.
	RemoteRetry cluster.RetryPolicy
	// WirePrecision selects the on-wire embedding row encoding in
	// multi-process mode: "fp32" (the default, bit-exact), "fp16", or "int8"
	// (quantized, smaller frames, approximate values).
	WirePrecision string
	// QuantizePush additionally encodes push deltas at WirePrecision instead
	// of fp32 — the full-compression mode. Pull-side quantization error is
	// self-correcting (the next delta is computed against the values the
	// trainer actually loaded), while a quantized delta perturbs the
	// authoritative copies directly, so this is a separate opt-in; the
	// quantized-wire AUC-parity test gates both modes.
	QuantizePush bool
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

// node bundles the per-node pieces of the hierarchy. In multi-process mode
// the MEM-PS/SSD-PS pieces live in the shard-server processes, so dev, store
// and local are nil.
type node struct {
	id     int
	gen    *dataset.Generator
	stream *hdfs.Stream
	dev    *blockio.Device
	store  *ssdps.Store
	local  *memps.MemPS
	hbm    *hbmps.HBMPS
	// indexer builds each batch's key index in stageRead (one goroutine per
	// node, one batch at a time); indexes recycles the indexes themselves:
	// stageRead takes one (or makes one when none is free), stageTrain hands
	// it back once the batch is trained. The source admits at most
	// MaxInFlight+readAhead batches, so that many slots keep every index in
	// circulation.
	indexer keys.IndexBuilder
	indexes chan *keys.Index
	// workers[g] is GPU g's training state. stageTrain runs on one pipeline
	// goroutine and trainOnGPUs gives each GPU one goroutine, so a worker is
	// only ever used by one goroutine at a time.
	workers []*gpuWorker
}

// nodeBatch carries one node's view of a batch through the pipeline.
type nodeBatch struct {
	batch *dataset.Batch
	// index is the batch's key partition, built by the read stage and read by
	// the pull stage (Unique) and the GPU workers (Rows) until the batch has
	// trained.
	index *keys.Index
	// block holds the working-set values (flat rows, sorted unique-key
	// order) between the pull and train stages; it is returned to the block
	// pool as soon as the HBM-PS has loaded it.
	block *ps.ValueBlock
	// deltas holds the node's collected update deltas (flat rows, changed
	// keys only, in working-set order) between the train and push stages;
	// pooled like block.
	deltas *ps.ValueBlock
}

// job is one batch index flowing through the pipeline (all nodes process
// their own batch of that index in parallel, as in data-parallel training).
type job struct {
	index int
	nodes []*nodeBatch
	// pull is the batch's pull dealt over the owners, from stagePull until
	// the push has completed it.
	pull []ownedPull
}

// Trainer is the end-to-end hierarchical training system.
type Trainer struct {
	cfg    Config
	clock  *simtime.Clock
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

	// The dense tower is replicated on every GPU worker (gpuWorker); net and
	// denseState are the stored copy the replicas check out of and commit to
	// (package comment, "Dense-tower staleness"). denseMu guards the stored
	// copy and the counters beside it. denseVersion is bumped by every write
	// to the stored copy, so a worker can tell whether it changed since the
	// worker last synced with it; denseCommits counts replica commits and
	// denseMerges those that found a peer's commit and took the delta path.
	denseMu      sync.Mutex
	net          *nn.Network
	denseState   *nn.DenseState
	denseVersion uint64
	denseCommits int64
	denseMerges  int64
	denseOpt     optimizer.Adagrad
	sparseOpt    optimizer.Sparse
	evalActs     *nn.Activations

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

	// sequential makes eachNode visit nodes in order instead of
	// concurrently; a test hook that removes scheduling nondeterminism (the
	// interleaving of per-node dense updates and parameter creation) so
	// equivalence tests can compare two runs at a tight tolerance.
	sequential bool

	// perExample switches trainShard to the pre-batching reference
	// implementation (per-example pulls and gradient pushes); a test hook
	// used to assert the batched path reproduces it exactly.
	perExample bool

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
	allReduce     time.Duration
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
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Data.Validate(); err != nil {
		return nil, err
	}
	dim := cfg.Spec.EmbeddingDim
	remoteMode := len(cfg.RemoteShards) > 0
	if remoteMode {
		if cfg.Topology.Members == nil && len(cfg.RemoteShards) != cfg.Topology.Nodes {
			return nil, fmt.Errorf("trainer: %d remote shards for %d nodes (need one per node)",
				len(cfg.RemoteShards), cfg.Topology.Nodes)
		}
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

	clock := simtime.NewClock()
	t := &Trainer{
		cfg:           cfg,
		clock:         clock,
		fabric:        interconnect.NewFabric(cfg.Profile, clock),
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
		prec, err := ps.ParsePrecision(cfg.WirePrecision)
		if err != nil {
			return nil, fmt.Errorf("trainer: %w", err)
		}
		t.remote.SetWirePrecision(prec)
		t.remote.SetPushQuantization(cfg.QuantizePush)
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

// buildNode builds node id's tiers: its own MEM-PS and SSD-PS under root
// when withMem (in process), and always its HBM-PS, data stream and GPU
// workers.
func (t *Trainer) buildNode(id int, root string, withMem bool) (_ *node, err error) {
	cfg := t.cfg
	var (
		dev   *blockio.Device
		store *ssdps.Store
		local *memps.MemPS
	)
	defer func() {
		if err != nil && dev != nil {
			dev.Close()
		}
	}()
	if withMem {
		dev, err = blockio.NewDevice(filepath.Join(root, fmt.Sprintf("node-%d", id)), cfg.Profile.SSD, t.clock)
		if err != nil {
			return nil, fmt.Errorf("trainer: node %d device: %w", id, err)
		}
		store, err = ssdps.Open(dev, ssdps.Config{
			Dim:                     cfg.Spec.EmbeddingDim,
			ParamsPerFile:           cfg.ParamsPerFile,
			DiskUsageThresholdBytes: cfg.SSDThresholdBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("trainer: node %d ssd-ps: %w", id, err)
		}
		local, err = memps.New(memps.Config{
			NodeID:   id,
			Dim:      cfg.Spec.EmbeddingDim,
			Topology: cfg.Topology,
			// Every owner copies the keys it owns into the blocks of the
			// nodes that want them (stagePull), so no MEM-PS pulls from a
			// peer.
			Transport:         cluster.NoRoute{},
			Store:             store,
			Fabric:            t.fabric,
			Clock:             t.clock,
			MemoryBudgetBytes: cfg.Profile.MainMemoryBytes,
			LRUEntries:        cfg.LRUEntries,
			LFUEntries:        cfg.LFUEntries,
			Seed:              cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("trainer: node %d mem-ps: %w", id, err)
		}
	}
	hbm, err := hbmps.New(hbmps.Config{
		NodeID:     id,
		NumGPUs:    cfg.Topology.GPUsPerNode,
		Dim:        cfg.Spec.EmbeddingDim,
		GPUProfile: cfg.Profile.GPU,
		NVLink:     cfg.Profile.NVLink,
		Fabric:     t.fabric,
		Clock:      t.clock,
	})
	if err != nil {
		return nil, fmt.Errorf("trainer: node %d hbm-ps: %w", id, err)
	}
	// Every node streams its own shard of the click log: distinct seeds give
	// distinct (but identically distributed) example streams. Node 0 uses the
	// base seed so a single-node trainer sees exactly the stream the
	// reference oracle trains on.
	gen := dataset.NewGenerator(cfg.Data, cfg.Seed+int64(id)*7919)
	stream := hdfs.NewStream(gen, hdfs.Config{
		BatchSize:  cfg.BatchSize,
		MaxBatches: cfg.Batches,
		Profile:    cfg.Profile.HDFS,
		Clock:      t.clock,
	})
	workers := make([]*gpuWorker, cfg.Topology.GPUsPerNode)
	for g := range workers {
		workers[g] = t.newGPUWorker()
	}
	return &node{id: id, gen: gen, stream: stream, dev: dev, store: store, local: local, hbm: hbm,
		indexes: make(chan *keys.Index, cfg.MaxInFlight+readAhead), workers: workers}, nil
}

func (t *Trainer) addStageModelled(stage string, d time.Duration) {
	t.mu.Lock()
	t.stageModelled[stage] += d
	t.mu.Unlock()
}

func (t *Trainer) maybeDelay(stage string) {
	if d := t.stageDelay[stage]; d > 0 {
		time.Sleep(d)
	}
}

// Run trains cfg.Batches batches through the 4-stage pipeline. It can be
// called once.
func (t *Trainer) Run(ctx context.Context) error {
	if t.cfg.Batches <= 0 {
		return fmt.Errorf("trainer: Batches must be positive, have %d", t.cfg.Batches)
	}
	// The depth gate guards parameters, not data: a batch takes a slot as it
	// enters the pull stage (the stage's Admit wait, outside its timing) and
	// the sink gives it back, so at most MaxInFlight batches lie between pull
	// and push and the parameters a batch trains on are at most
	// MaxInFlight-1 batches stale. At depth 1 the parameter stages keep
	// Algorithm 1's strict sequential ordering. The source admits
	// MaxInFlight+readAhead batches, so the read stage — which touches no
	// parameter — works one batch ahead of the gate instead of idling behind
	// it.
	gate := newDepthGate(t.cfg.MaxInFlight)
	event := t.stageEvent
	if event == nil {
		event = func(string, int, bool) {}
	}

	// A restored run's committed watermark starts at the restore cursor, not
	// zero, so the staleness accounting (job index minus committed) measures
	// this run's lag rather than the checkpoint's age.
	if t.committer != nil {
		t.committer.committed.Store(int64(t.restored))
	}

	// A restored run trains only the batches the checkpoint does not cover;
	// job indices continue from the cursor so serve epochs stay monotonic.
	remaining := t.cfg.Batches - t.restored
	if remaining <= 0 {
		return nil // the checkpoint already covers the whole run
	}
	next := 0
	source := func(ctx context.Context) (*job, bool, error) {
		if next >= remaining {
			return nil, false, nil
		}
		if err := gate.admit(ctx); err != nil {
			return nil, false, err
		}
		j := &job{index: next + t.restored, nodes: make([]*nodeBatch, len(t.nodes))}
		next++
		event("admit", j.index, true)
		return j, true, nil
	}
	sink := func(ctx context.Context, j *job) error {
		event("sink", j.index, true)
		gate.release()
		t.mu.Lock()
		t.batchesDone++
		done := t.batchesDone
		for _, nb := range j.nodes {
			t.examples += int64(nb.batch.Len())
		}
		t.mu.Unlock()
		if iv := int64(t.cfg.CheckpointInterval); iv > 0 && t.cfg.CheckpointPath != "" && done%iv == 0 {
			// Periodic durability point: flush every shard, then publish the
			// manifest. Batches still in the pipeline re-train after a
			// restore from this cut (see checkpoint.go).
			if err := t.Flush(); err != nil {
				return fmt.Errorf("trainer: checkpoint at batch %d: %w", done, err)
			}
		}
		if t.cfg.BatchPause > 0 {
			select {
			case <-time.After(t.cfg.BatchPause):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}

	stage := func(name string, fn func(context.Context, *job) (*job, error)) pipeline.Stage[*job] {
		return pipeline.Stage[*job]{Name: name, Fn: func(ctx context.Context, j *job) (*job, error) {
			event(name, j.index, true)
			defer event(name, j.index, false)
			return fn(ctx, j)
		}}
	}
	pull := stage(StagePull, t.stagePull)
	pull.Admit = func(ctx context.Context, _ *job) error { return gate.acquire(ctx) }
	t.pipe = pipeline.New(stage(StageRead, t.stageRead), pull, stage(StageTrain, t.stageTrain), stage(StagePush, t.stagePush))
	err := t.pipe.Run(ctx, source, sink)
	if t.committer != nil {
		// Settle the committer before returning — on errors too, so a caller
		// that evaluates or checkpoints after a failed run still sees every
		// acked push applied.
		if derr := t.committer.drain(); err == nil {
			err = derr
		}
	}
	return err
}

// stageRead streams every node's batch of this index from HDFS and partitions
// its keys (Algorithm 1 lines 3-5, the CPU's one job between the read and the
// SSD): the later stages read the index instead of sorting again.
func (t *Trainer) stageRead(_ context.Context, j *job) (*job, error) {
	t.maybeDelay(StageRead)
	var mu sync.Mutex
	var modelled time.Duration
	err := t.eachNode(func(n *node) error {
		b, err := n.stream.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return fmt.Errorf("trainer: node %d stream exhausted at batch %d", n.id, j.index)
		}
		var idx *keys.Index
		select {
		case idx = <-n.indexes:
		default:
			idx = new(keys.Index)
		}
		b.IndexInto(&n.indexer, idx)
		j.nodes[n.id] = &nodeBatch{batch: b, index: idx}
		d := t.cfg.Profile.HDFS.ReadTime(b.ByteSize())
		mu.Lock()
		if d > modelled {
			modelled = d // nodes stream in parallel; the job pays the slowest
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.addStageModelled(StageRead, modelled)
	return j, nil
}

// stagePull assembles every node's working parameters and has their owners
// pin them (Algorithm 1 lines 3-4): cache hits from memory, misses from the
// SSD-PS, peer-owned keys from their owners. The batch's key union is dealt
// over the current owners once (splitByOwner), and every owner resolves its
// share for all nodes at once (owner.resolve); the stage pays the slowest.
func (t *Trainer) stagePull(_ context.Context, j *job) (*job, error) {
	t.maybeDelay(StagePull)
	t.ownersMu.Lock()
	owners := t.owners
	err := t.splitByOwner(j, owners)
	t.ownersMu.Unlock()
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var modelled time.Duration
	err = t.eachOwner(owners, func(o owner) error {
		d, err := o.resolve(j.pull, t.pullBlocks)
		if err != nil {
			return err
		}
		mu.Lock()
		modelled = max(modelled, d)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.addStageModelled(StagePull, modelled)
	return j, nil
}

// stageTrain loads every node's working set into its HBM-PS, trains the
// batch with one concurrent worker per GPU (each pulling and pushing its
// shard against the HBM-PS), and collects the per-node update deltas.
func (t *Trainer) stageTrain(_ context.Context, j *job) (*job, error) {
	t.maybeDelay(StageTrain)
	if t.committer != nil {
		// Record the realized staleness of the parameters this batch pulled:
		// how many older batches trained without their push applied yet.
		t.committer.observeTrain(j.index)
	}
	var mu sync.Mutex
	var modelled time.Duration
	err := t.eachNode(func(n *node) error {
		nb := j.nodes[n.id]
		before := n.hbm.Stats()
		if err := n.hbm.LoadBlock(nb.block); err != nil {
			return err
		}
		// The HBM-PS copied the values; recycle the block for later batches.
		ps.PutBlock(nb.block)
		nb.block = nil
		if err := t.trainOnGPUs(n, nb); err != nil {
			return err
		}
		select {
		case n.indexes <- nb.index:
		default:
		}
		nb.index = nil
		nb.deltas = ps.GetBlock(t.cfg.Spec.EmbeddingDim, nil)
		n.hbm.CollectBlock(nb.deltas)
		if _, err := n.hbm.Evict(nil); err != nil { // release HBM for the next batch
			return err
		}
		after := n.hbm.Stats()

		// The dense tower trains on the GPUs in parallel with the sparse
		// pulls; charge its modelled compute time per GPU.
		flopsPerGPU := t.net.FLOPsPerExample() * float64(nb.batch.Len()) / float64(len(n.hbm.Devices()))
		var computeTime time.Duration
		for _, dev := range n.hbm.Devices() {
			dev.ChargeCompute(flopsPerGPU)
			if ct := dev.Profile().ComputeTime(flopsPerGPU); ct > computeTime {
				computeTime = ct
			}
		}
		d := (after.LoadTime - before.LoadTime) +
			(after.PullTime - before.PullTime) +
			(after.PushTime - before.PushTime) + computeTime
		mu.Lock()
		if d > modelled {
			modelled = d
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.addStageModelled(StageTrain, modelled)
	// Advance the trained-batch watermark (stageTrain runs on a single
	// pipeline goroutine with monotonic indices).
	t.trainedEpoch.Store(uint64(j.index) + 1)
	return j, nil
}

// trainOnGPUs shards the batch across the node's GPUs — Batch.Shard's split,
// as example ranges plus the key-occurrence range each covers in the batch's
// index — and trains each shard on its own worker goroutine: pull the
// example's embeddings from the HBM-PS, run the dense tower, push the sparse
// gradients back (Algorithm 1 lines 11-15).
func (t *Trainer) trainOnGPUs(n *node, nb *nodeBatch) error {
	numGPUs := n.hbm.NumGPUs()
	examples := nb.batch.Examples
	errs := make([]error, numGPUs)
	var wg sync.WaitGroup
	occ := 0
	for g := 0; g < numGPUs; g++ {
		lo, hi := dataset.ShardBounds(len(examples), numGPUs, g)
		shard := examples[lo:hi]
		first := occ
		for i := range shard {
			occ += len(shard[i].Features)
		}
		wg.Add(1)
		go func(g, first, end int) {
			defer wg.Done()
			errs[g] = t.trainShard(n, g, shard, nb.index, first, end)
		}(g, first, occ)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// denseMicroRun is how many examples a GPU worker trains on its dense replica
// between syncs with the stored copy; see the package comment's staleness
// discussion.
const denseMicroRun = 32

// gpuWorker is one GPU's training state: its replica of the dense tower and
// the scratch of the batched sparse path, allocated once by shape so
// steady-state shards allocate nothing.
type gpuWorker struct {
	// net and state are the replica, trained in place with no lock held;
	// origNet and origState are its snapshot at check-out, which the commit's
	// delta is taken against — with the stored copy, the four copies a commit
	// needs. version is the Trainer.denseVersion at which the replica last
	// equalled the stored copy.
	net, origNet     *nn.Network
	state, origState *nn.DenseState
	version          uint64
	// loss collects the worker's examples between commits, so the shared
	// accumulator's mutex is taken once per micro-run, not once per example.
	loss metrics.LogLossAccumulator
	acts *nn.Activations
	vecs [][]float32
	offs []int32
	// keys is the shard's key set and local the row of each of the batch
	// index's rows in it (keys.Index.Subset).
	keys  []keys.Key
	local []int32
	// stamp[row] == ver marks rows already updated by the current example,
	// deduplicating repeated features within one example exactly like the
	// per-example path's gradient map did.
	stamp []uint32
	ver   uint32
}

// newGPUWorker allocates a worker whose replica equals the freshly built
// stored copy (denseVersion 0), so its first check-out copies nothing.
func (t *Trainer) newGPUWorker() *gpuWorker {
	return &gpuWorker{
		net: t.net.Clone(), origNet: t.net.Clone(),
		state: t.net.NewDenseState(t.denseOpt), origState: t.net.NewDenseState(t.denseOpt),
		acts: t.net.NewActivations(),
	}
}

// checkoutDense syncs w's replica with the stored copy — skipped when nothing
// was written since the replica last equalled it, i.e. w's own commit was the
// last — and snapshots it for the commit.
func (t *Trainer) checkoutDense(w *gpuWorker) {
	t.denseMu.Lock()
	if w.version != t.denseVersion {
		w.net.CopyFrom(t.net)
		w.state.CopyFrom(t.denseState)
		w.version = t.denseVersion
	}
	t.denseMu.Unlock()
	w.origNet.CopyFrom(w.net)
	w.origState.CopyFrom(w.state)
}

// commitDense folds w's trained replica into the stored copy: stored = final
// + (stored - orig). When nothing was written since the check-out, stored ==
// orig bit-for-bit and the formula yields exactly final, so the replica is
// copied over and stays in sync; otherwise a peer committed in between and
// the stored copy ends up with both contributions.
func (t *Trainer) commitDense(w *gpuWorker) {
	t.denseMu.Lock()
	merge := w.version != t.denseVersion
	t.denseVersion++
	t.denseCommits++
	if merge {
		t.denseMerges++
		t.net.Commit(w.origNet, w.net)
		t.denseState.Commit(w.origState, w.state)
	} else {
		t.net.CopyFrom(w.net)
		t.denseState.CopyFrom(w.state)
		w.version = t.denseVersion
	}
	t.denseMu.Unlock()
	t.loss.Merge(&w.loss)
}

// trainShard trains one GPU worker's mini-batch with batched parameter
// movement: one block pull of the shard's unique keys, offset-indexed
// training against the block (applying the sparse optimizer in place, example
// by example), and one block commit — in place of a pull and a gradient push
// per example. The shard's examples reference the key occurrences [lo, hi) of
// the batch's index. With a single shard the arithmetic is bit-identical to
// the per-example reference path (see CommitBlock); across concurrent shards
// the per-key contributions combine additively rather than interleaving
// through the shared tables.
func (t *Trainer) trainShard(n *node, gpuID int, examples []dataset.Example, idx *keys.Index, lo, hi int) error {
	if len(examples) == 0 {
		return nil
	}
	if t.perExample {
		return t.trainShardPerExample(n, gpuID, examples)
	}
	w := n.workers[gpuID]

	// The shard's unique key set, sorted, and the row of every batch-index row
	// in it: the batch was partitioned once in the read stage, so a feature's
	// row offset is two loads, not a sort and a search.
	uniq, local := idx.Subset(lo, hi, w.keys, w.local)
	w.keys, w.local = uniq, local
	rows := idx.Rows[lo:hi]

	dim := t.cfg.Spec.EmbeddingDim
	work := ps.GetBlock(dim, uniq)
	defer ps.PutBlock(work)
	if err := n.hbm.PullInto(ps.PullRequest{Shard: gpuID, Keys: uniq}, work); err != nil {
		return err
	}
	orig := ps.GetBlock(dim, uniq)
	defer ps.PutBlock(orig)
	orig.CopyFrom(work)

	if cap(w.stamp) < len(uniq) {
		w.stamp = make([]uint32, len(uniq))
	} else {
		w.stamp = w.stamp[:len(uniq)]
	}

	for start := 0; start < len(examples); start += denseMicroRun {
		end := min(start+denseMicroRun, len(examples))
		// One check-out and one commit per micro-run; in between the worker
		// trains its own replica and its own block, no lock held (package
		// comment, "Dense-tower staleness").
		t.checkoutDense(w)
		for e := start; e < end; e++ {
			ex := &examples[e]
			w.vecs = w.vecs[:0]
			w.offs = w.offs[:0]
			for _, r := range rows[:len(ex.Features)] {
				off := local[r]
				w.offs = append(w.offs, off)
				w.vecs = append(w.vecs, work.WeightsRow(int(off)))
			}
			rows = rows[len(ex.Features):]
			nn.PoolSum(w.acts.Input(), w.vecs)
			pred := w.net.Forward(w.acts)
			inputGrad := w.net.BackwardApply(w.acts, pred, ex.Label, t.denseOpt, w.state)
			w.loss.Add(float64(pred), float64(ex.Label))

			// With sum pooling every referenced feature receives the input
			// gradient; apply the sparse optimizer to the block in place so
			// later examples of this shard see the update, exactly like the
			// per-example path reading back from the tables.
			w.ver++
			if w.ver == 0 { // stamp wrapped: reset the epoch space
				for i := range w.stamp {
					w.stamp[i] = 0
				}
				w.ver = 1
			}
			for _, off := range w.offs {
				if w.stamp[off] == w.ver {
					continue // repeated feature within the example
				}
				w.stamp[off] = w.ver
				t.sparseOpt.ApplySparse(work.WeightsRow(int(off)), work.G2Row(int(off)), inputGrad)
				work.Freq[off]++
			}
		}
		t.commitDense(w)
	}
	return n.hbm.CommitBlock(gpuID, orig, work)
}

// trainShardPerExample is the pre-batching reference implementation: pull
// the example's embeddings, train the stored dense copy in place with the
// reference Backward + Apply, push the gradients — per example. It is kept
// (behind the perExample hook) so tests can assert that the batched path,
// replicas and fused step included, reproduces it exactly.
func (t *Trainer) trainShardPerExample(n *node, gpuID int, examples []dataset.Example) error {
	acts := t.net.NewActivations()
	grads := t.net.NewGradients()
	var denseOpt optimizer.Dense = t.denseOpt // converted once, not per example
	vecs := make([][]float32, 0, t.cfg.Data.NonZerosPerExample)
	values := ps.NewValueBlock(t.cfg.Spec.EmbeddingDim)
	for _, ex := range examples {
		if err := n.hbm.PullInto(ps.PullRequest{Shard: gpuID, Keys: ex.Features}, values); err != nil {
			return err
		}
		vecs = vecs[:0]
		for i := range ex.Features {
			vecs = append(vecs, values.WeightsRow(i))
		}

		// No replica here: every example trains the stored copy itself.
		t.denseMu.Lock()
		nn.PoolSum(acts.Input(), vecs)
		pred := t.net.Forward(acts)
		grads.Zero()
		inputGrad := t.net.Backward(acts, pred, ex.Label, grads)
		t.net.Apply(denseOpt, t.denseState, grads)
		t.denseVersion++
		t.denseMu.Unlock()
		t.loss.Add(float64(pred), float64(ex.Label))

		// With sum pooling every referenced feature receives the input
		// gradient; the HBM-PS owners apply the sparse optimizer in place.
		sparse := make(map[keys.Key][]float32, len(ex.Features))
		for _, k := range ex.Features {
			sparse[k] = inputGrad
		}
		if err := n.hbm.PushGrads(gpuID, sparse, t.sparseOpt); err != nil {
			return err
		}
	}
	return nil
}

// sumDeltaBlocks merges the per-node delta blocks — sorted unique keys, all
// rows present — into dst by sorted-key union, summing coincident rows
// slab-wise with the unrolled tensor kernels. Contributions for a shared key
// combine in node order, exactly like the map-based merge this replaces.
func sumDeltaBlocks(dst *ps.ValueBlock, dim int, blocks []*ps.ValueBlock, cursors []int) {
	dst.Reset(dim, nil)
	total := 0
	for bi, b := range blocks {
		total += b.Len()
		cursors[bi] = 0
	}
	dst.Grow(total)
	if len(blocks) == 2 {
		sumDeltaBlocks2(dst, blocks[0], blocks[1])
		return
	}
	for {
		var best keys.Key
		found := false
		for bi, b := range blocks {
			if cursors[bi] < b.Len() {
				if k := b.Keys[cursors[bi]]; !found || k < best {
					best, found = k, true
				}
			}
		}
		if !found {
			return
		}
		row := dst.GrowRow(best)
		dw, dg := dst.WeightsRow(row), dst.G2Row(row)
		for bi, b := range blocks {
			if i := cursors[bi]; i < b.Len() && b.Keys[i] == best {
				tensor.Add(b.WeightsRow(i), dw)
				tensor.Add(b.G2Row(i), dg)
				dst.Freq[row] += b.Freq[i]
				cursors[bi]++
			}
		}
	}
}

// sumDeltaBlocks2 is the two-contributor fast path of sumDeltaBlocks: a
// straight two-cursor merge. Runs of keys only one node touched are copied
// slab-wise in one shot; the add kernel runs only for keys both nodes
// updated. The generic loop above pays a per-key contributor scan and a
// zero-fill-plus-two-adds even for exclusive keys, which dominates the push
// stage once everything around it is batched.
func sumDeltaBlocks2(dst *ps.ValueBlock, a, b *ps.ValueBlock) {
	i, j := 0, 0
	an, bn := a.Len(), b.Len()
	for i < an && j < bn {
		ka, kb := a.Keys[i], b.Keys[j]
		switch {
		case ka < kb:
			run := i
			for i++; i < an && a.Keys[i] < kb; i++ {
			}
			dst.AppendRows(a, run, i)
		case kb < ka:
			run := j
			for j++; j < bn && b.Keys[j] < ka; j++ {
			}
			dst.AppendRows(b, run, j)
		default:
			row := dst.GrowRowUninit(ka)
			dw, dg := dst.WeightsRow(row), dst.G2Row(row)
			copy(dw, a.WeightsRow(i))
			copy(dg, a.G2Row(i))
			tensor.Add(b.WeightsRow(j), dw)
			tensor.Add(b.G2Row(j), dg)
			dst.Freq[row] = a.Freq[i] + b.Freq[j]
			i++
			j++
		}
	}
	dst.AppendRows(a, i, an)
	dst.AppendRows(b, j, bn)
}

// mergePair merges the two nodes' sorted delta blocks key-wise and
// partitions the result by owning node into mergeScratch.pair (see
// pairMerge). One scan serves both shards, replacing two per-shard ownership
// scans and the merged-slab copies. It returns the merged row count (for the
// all-reduce charge).
func (t *Trainer) mergePair(a, b *ps.ValueBlock) int {
	s := &t.mergeScratch.pair
	s.a, s.b = a, b
	for o := range s.keys {
		s.keys[o] = s.keys[o][:0]
		s.rowsA[o] = s.rowsA[o][:0]
		s.rowsB[o] = s.rowsB[o][:0]
	}
	topo := t.cfg.Topology
	emit := func(k keys.Key, ai, bi int32) {
		o := topo.NodeOf(k)
		s.keys[o] = append(s.keys[o], k)
		s.rowsA[o] = append(s.rowsA[o], ai)
		s.rowsB[o] = append(s.rowsB[o], bi)
	}
	an, bn := a.Len(), b.Len()
	i, j := 0, 0
	for i < an && j < bn {
		ka, kb := a.Keys[i], b.Keys[j]
		switch {
		case ka < kb:
			if a.Present[i] {
				emit(ka, int32(i), -1)
			}
			i++
		case kb < ka:
			if b.Present[j] {
				emit(kb, -1, int32(j))
			}
			j++
		default:
			if a.Present[i] || b.Present[j] {
				ai, bi := int32(i), int32(j)
				if !a.Present[i] {
					ai = -1
				}
				if !b.Present[j] {
					bi = -1
				}
				emit(ka, ai, bi)
			}
			i++
			j++
		}
	}
	for ; i < an; i++ {
		if a.Present[i] {
			emit(a.Keys[i], int32(i), -1)
		}
	}
	for ; j < bn; j++ {
		if b.Present[j] {
			emit(b.Keys[j], -1, int32(j))
		}
	}
	return len(s.keys[0]) + len(s.keys[1])
}

// stagePush synchronizes the per-node deltas (the hierarchical all-reduce of
// Appendix C.3), has every owner apply its share of them, and completes the
// batch (unpin, dump evictions, compact — Algorithm 1 lines 16-18). The
// whole stage is block-native: the per-node delta blocks are summed slab-wise
// into one global block, the modelled all-reduce is charged from its byte
// size, and each owner applies it through one PushBlock (one flat wire frame
// per owner in multi-process mode) — no per-key value allocation anywhere on
// the path.
func (t *Trainer) stagePush(ctx context.Context, j *job) (*job, error) {
	t.maybeDelay(StagePush)
	dim := t.cfg.Spec.EmbeddingDim

	// Sum the deltas of all nodes: the inter-node synchronization delivers
	// every delta everywhere, and each owner applies the global sum once. The
	// two-node in-process case skips the materialized merge entirely — each
	// MEM-PS sums the pair on the fly in PushBlockPair — so only the merged
	// row count (for the all-reduce charge) is computed here. Async push
	// always materializes the merge: the committer needs an owned block that
	// outlives this stage, while the fused pair path reads the per-node delta
	// blocks and per-batch pair scratch in place.
	//
	// The fused path stays because the benchmark sees it: with it disabled,
	// train_local_cold (sync, in-process, 2 nodes) runs the general merge and
	// its p90 RSS rises 8.1% over 10 alternating 16 s pairs at seed 1 (31.1
	// -> 33.6 MB) and 11.5% over 5 more (30.1 -> 33.6 MB), every run above
	// every fused run, on a 2-core Xeon VM; examples/s falls about 4%.
	fused := t.committer == nil && t.remote == nil && len(t.nodes) == 2
	var d deltas
	mergedRows := 0
	if fused {
		mergedRows = t.mergePair(j.nodes[0].deltas, j.nodes[1].deltas)
		d.pair = &t.mergeScratch.pair
	} else {
		d.global = j.nodes[0].deltas
		if len(t.nodes) > 1 {
			d.global = ps.GetBlock(dim, nil)
			t.mergeScratch.blocks = t.mergeScratch.blocks[:0]
			for _, nb := range j.nodes {
				t.mergeScratch.blocks = append(t.mergeScratch.blocks, nb.deltas)
			}
			if cap(t.mergeScratch.cursors) < len(t.nodes) {
				t.mergeScratch.cursors = make([]int, len(t.nodes))
			}
			sumDeltaBlocks(d.global, dim, t.mergeScratch.blocks, t.mergeScratch.cursors[:len(t.nodes)])
		}
		mergedRows = d.global.Len()
	}

	// Charge the modelled all-reduce: every GPU contributes its partition of
	// the deltas, inter-node rounds over RDMA, intra-node rounds over NVLink.
	// The volume is the global block's payload size (every row is a changed
	// key, so rows x encoded-row-size is exactly what the synchronization
	// moves). The charge stays on this stage even in async mode — the
	// synchronization itself is not deferred, only the owners' apply.
	var syncTime time.Duration
	totalGPUs := t.cfg.Topology.TotalGPUs()
	if totalGPUs > 1 {
		deltaBytes := int64(mergedRows) * int64(8+embedding.EncodedSize(dim))
		bytesPerGPU := deltaBytes / int64(totalGPUs)
		syncTime = interconnect.HierarchicalAllReduceTime(
			bytesPerGPU, t.cfg.Topology.Nodes, t.cfg.Topology.GPUsPerNode,
			t.cfg.Profile.RDMA, t.cfg.Profile.NVLink)
		t.clock.Add(simtime.ResourceRDMA, syncTime)
		t.mu.Lock()
		t.allReduce += syncTime
		t.mu.Unlock()
	}

	if t.committer != nil {
		// Hand the merged block and the batch's pull to the background
		// committer and return: the pipeline slot frees before the owners'
		// round trip. The committer owns global from here; the per-node
		// blocks are released now (the single-node case adopted its delta
		// block as global).
		pj := &pushJob{index: j.index, global: d.global, pull: j.pull}
		j.pull = nil
		for _, nb := range j.nodes {
			if nb.deltas != d.global {
				ps.PutBlock(nb.deltas)
			}
			nb.deltas = nil
		}
		t.addStageModelled(StagePush, syncTime)
		if err := t.committer.enqueue(ctx, pj); err != nil {
			return nil, err
		}
		return j, nil
	}

	defer func() {
		for _, nb := range j.nodes {
			ps.PutBlock(nb.deltas)
			nb.deltas = nil
		}
		if d.global != nil && len(t.nodes) > 1 {
			ps.PutBlock(d.global)
		}
	}()
	// The owners' push-time deltas are safe to read here because only this
	// stage touches the push path. The SSD-PS writes are not the stage's:
	// CompleteBatch hands them to the MEM-PS's background write (blockio
	// still charges them to the clock's SSD).
	modelled, err := t.applyPush(d, j.pull)
	if err != nil {
		return nil, err
	}
	j.pull = nil
	if err := t.republishDense(j.index); err != nil {
		return nil, err
	}
	t.addStageModelled(StagePush, modelled+syncTime)
	return j, nil
}

// republishDense refreshes every shard's dense replica once a batch's pushes
// have been applied (Config.Serve): shards stamp the parameters with the
// epoch and bound their reported serving staleness against it, and the
// trained-batch watermark rides along so they can report how far their
// parameters trail training (push epoch lag).
func (t *Trainer) republishDense(index int) error {
	if !t.cfg.Serve {
		return nil
	}
	t.denseMu.Lock()
	t.denseFlat = t.net.FlattenParams(t.denseFlat[:0])
	t.denseMu.Unlock()
	scfg := cluster.ServeConfig{Dense: t.denseFlat, Epoch: uint64(index) + 1,
		TrainedEpoch: t.trainedEpoch.Load()}
	for _, id := range t.cfg.Topology.MemberIDs() {
		if err := t.remote.PublishServeConfig(id, scfg); err != nil {
			// A member mid-failover misses this epoch's dense refresh; it
			// catches up on the next one. Failing the run here would turn a
			// survivable shard outage into a training abort.
			if t.cfg.Topology.Replicas > 1 {
				continue
			}
			return fmt.Errorf("trainer: refresh dense on shard %d: %w", id, err)
		}
	}
	return nil
}

// Predict returns the model's click probability for a feature set, reading
// the authoritative parameter copies of its distinct keys from their owners
// into one block (one batched lookup per owner — over the wire in
// multi-process mode, failing over to backups on a primary outage) and
// pooling the rows in feature order, as the serving tier does. Features
// never trained on contribute nothing (matching internal/reference). It
// fails if an owner's parameters cannot be read: a prediction computed with
// a shard's embeddings missing would be silently wrong.
func (t *Trainer) Predict(features []keys.Key) (float32, error) {
	var (
		ib keys.IndexBuilder
		x  keys.Index
	)
	ib.Add(features)
	ib.Build(&x)
	dim := t.cfg.Spec.EmbeddingDim
	blk := ps.GetBlock(dim, x.Unique)
	defer ps.PutBlock(blk)
	sub := ps.GetBlock(dim, nil)
	defer ps.PutBlock(sub)
	t.ownersMu.Lock()
	owners := t.owners
	parts := t.cfg.Topology.SplitByNode(x.Unique)
	t.ownersMu.Unlock()
	for id, ks := range parts {
		if len(ks) == 0 {
			continue
		}
		if id >= len(owners) || owners[id] == nil {
			return 0, fmt.Errorf("trainer: predict: keys owned by %d, which is not an owner of this trainer", id)
		}
		if err := owners[id].HandleLookupBlock(ks, sub); err != nil {
			return 0, fmt.Errorf("trainer: predict: owner %d: %w", id, err)
		}
		blk.ScatterRows(sub)
	}
	vecs := make([][]float32, 0, len(features))
	for _, r := range x.Rows {
		if blk.Present[r] {
			vecs = append(vecs, blk.WeightsRow(int(r)))
		}
	}
	t.denseMu.Lock()
	defer t.denseMu.Unlock()
	nn.PoolSum(t.evalActs.Input(), vecs)
	return t.net.Forward(t.evalActs), nil
}

// Evaluate returns the model AUC over n fresh examples drawn from gen.
func (t *Trainer) Evaluate(gen *dataset.Generator, n int) (float64, error) {
	scores := make([]float64, 0, n)
	labels := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		ex := gen.NextExample()
		p, err := t.Predict(ex.Features)
		if err != nil {
			return 0, err
		}
		scores = append(scores, float64(p))
		labels = append(labels, float64(ex.Label))
	}
	return metrics.AUC(scores, labels), nil
}

// UpdateMembership installs a membership change into the trainer's shared
// topology view and (re)points the remote transport at the member addresses
// it carries: the next batch's pulls and pushes follow the new ring. Stale
// epochs are dropped by the membership view itself, so out-of-order delivery
// is harmless.
func (t *Trainer) UpdateMembership(u cluster.MembershipUpdate) error {
	if t.cfg.Topology.Members == nil {
		return fmt.Errorf("trainer: topology has no membership view to update")
	}
	if err := u.Validate(); err != nil {
		return err
	}
	// The owner table grows before the ring that names a new member is
	// installed, under ownersMu, so no batch is dealt over a member without
	// an owner.
	t.ownersMu.Lock()
	defer t.ownersMu.Unlock()
	if t.remote != nil {
		for id, addr := range u.Addrs {
			t.remote.SetAddr(id, addr)
		}
		t.owners = t.newRemoteShards(t.owners, u.Members)
	}
	t.cfg.Topology.Members.Update(u.BuildRing())
	return nil
}

// Examples returns the number of examples trained across all nodes.
func (t *Trainer) Examples() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.examples
}

// MeanLoss returns the mean training log-loss so far.
func (t *Trainer) MeanLoss() float64 { return t.loss.Mean() }

// Clock returns the cluster's simulated-time clock.
func (t *Trainer) Clock() *simtime.Clock { return t.clock }

// Nodes returns the number of nodes.
func (t *Trainer) Nodes() int { return len(t.nodes) }

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
