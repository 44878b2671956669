package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/model"
	"hps/internal/trainer"
)

// env is what one benchmark invocation shares across its workloads.
type env struct {
	outDir string // bench/out
	runDir string // bench/out/run-<pid>, removed at exit
	hpsBin string
	seed   int64
	window time.Duration
	// setups is how many times a workload sets up (all but the last are
	// torn down again); setup_s is the median, so one slow fork or page
	// cache miss does not decide it.
	setups int
	// evalN is the held-out sample the AUC is computed over.
	evalN int
	// probeBatches is how many seeded batches the layer probe replays.
	probeBatches int
	// kneeRates are the extra fixed rates the traced serve run steps
	// through (each for kneeStep) to find the highest one meeting the limit.
	kneeRates []int
	kneeStep  time.Duration
	// gauge samples the host's state for as long as the invocation runs.
	gauge *hostGauge
}

// shape is one workload's fixed configuration. Everything a run varies comes
// from env (seed, window); nothing here depends on a measured value.
type shape struct {
	name string
	// why records why the workload exists; BENCHMARK.json and the README
	// carry the same text.
	why       string
	spec      model.Spec
	nodes     int
	gpus      int
	batchSize int
	depth     int
	// warmup is the fixed number of batches trained before the window, sized
	// so each workload's set-up takes about a second.
	warmup int
	// aucFloor fails the run when the held-out AUC ends below it.
	aucFloor  float64
	asyncPush bool
	pushLag   int
	// cacheFrac sizes each in-process node's MEM-PS cache as a share of its
	// parameter shard (in-process workloads only).
	cacheFrac float64
	// shards > 0 makes the workload multi-process: that many `hps serve`
	// children, the bench as driver (trainer.Config.RemoteShards).
	shards         int
	shardModel     string
	shardCacheFrac float64
	// serve arms the shards' serving tier; batchPause throttles the trainer
	// beside the predict stream.
	serve      bool
	batchPause time.Duration
	// hostExp is how the workload's time follows the host gauge: time per
	// example ~ level^hostExp, fitted over two sets of runs through both host
	// states (README, "Host state"). The time-based end-to-end metrics are
	// adjusted with it to the reference level.
	hostExp float64
}

// paceExp is hostExp for the trainer's pace — throughput and the warm-up
// that dominates set-up: 0 for a trainer throttled by batchPause, whose pace
// the pause sets, not the host.
func (s shape) paceExp() float64 {
	if s.batchPause > 0 {
		return 0
	}
	return s.hostExp
}

func hotSpec() model.Spec {
	return model.Spec{Name: "bench-hot", NonZerosPerExample: 20, SparseParams: 20000,
		EmbeddingDim: 16, HiddenLayers: []int{128, 64, 32}, MPINodes: 1}
}

func coldSpec() model.Spec {
	return model.Spec{Name: "bench-cold", NonZerosPerExample: 50, SparseParams: 60000,
		EmbeddingDim: 8, HiddenLayers: []int{16, 8}, MPINodes: 1}
}

// shapes are the four workloads, in suite order.
var shapes = []shape{
	{name: wlTrainLocalHot,
		why:  "in-process, 1 node x 2 GPUs, wide dense tower, cache holds the whole model: the train stage (hbmps, nn, optimizer) dominates; ssdps and cluster idle",
		spec: hotSpec(), nodes: 1, gpus: 2, batchSize: 256,
		depth: 1, warmup: 60, aucFloor: 0.80, cacheFrac: 1.5, hostExp: 0.7},
	// Depth stays 1: at depth > 1 this shape dies with "ssdps: load: no such
	// file" (LoadTimed reads files a concurrent Compact deletes; README).
	{name: wlTrainLocalCold,
		why:  "in-process, 2 nodes x 1 GPU, 60k keys, cache 5% of the shard: pull+push dominate (memps miss path, ssdps load/dump/compaction, peer pulls); dense tower negligible",
		spec: coldSpec(), nodes: 2, gpus: 1, batchSize: 256,
		depth: 1, warmup: 16, aucFloor: 0.75, cacheFrac: 0.05, hostExp: 0.7},
	{name: wlTrainTCP,
		why:  "driver + 2 real hps serve shard processes over loopback, depth 4, async push: wire codec, RPC, pipeline overlap and the committer; no local tiers in the driver",
		spec: model.TinySpec(), nodes: 2, gpus: 2, batchSize: 256,
		depth: 4, warmup: 50, aucFloor: 0.80, asyncPush: true, pushLag: 2,
		shards: 2, shardModel: "tiny", shardCacheFrac: 0.25, hostExp: 0.85},
	{name: wlServeMixed,
		why:  "same 2-shard cluster serving an open-loop 100 req/s predict stream, first beside a throttled trainer, then alone: reads beside writes vs reads alone on the same serving code",
		spec: model.TinySpec(), nodes: 2, gpus: 2, batchSize: 256,
		depth: 2, warmup: 15, aucFloor: 0.80,
		shards: 2, shardModel: "tiny", shardCacheFrac: 0.25,
		serve: true, batchPause: 65 * time.Millisecond, hostExp: 0.7},
}

// shapeNamed returns the workload of that name.
func shapeNamed(name string) (shape, bool) {
	for _, s := range shapes {
		if s.name == name {
			return s, true
		}
	}
	return shape{}, false
}

// maxBatches is the batch budget handed to the trainer: the window, not the
// budget, ends a run, so it only has to be unreachable.
const maxBatches = 1 << 30

// trainerConfig builds the trainer configuration for a shape; addrs is the
// shard address map of a multi-process shape, dir the state directory.
func (s shape) trainerConfig(e *env, dir string, addrs map[int]string) trainer.Config {
	cfg := trainer.Config{
		Spec:        s.spec,
		Data:        dataset.ForModel(s.spec.SparseParams, s.spec.NonZerosPerExample),
		Topology:    cluster.Topology{Nodes: s.nodes, GPUsPerNode: s.gpus},
		BatchSize:   s.batchSize,
		Batches:     maxBatches,
		MaxInFlight: s.depth,
		Profile:     hw.DefaultGPUNode(),
		Seed:        e.seed,
		AsyncPush:   s.asyncPush,
		PushLag:     s.pushLag,
		BatchPause:  s.batchPause,
		// The manifest lives beside the state; WriteCheckpoint needs a path.
		CheckpointPath: filepath.Join(dir, "checkpoint.json"),
	}
	if s.shards > 0 {
		cfg.RemoteShards = addrs
		cfg.Serve = s.serve
		cfg.WirePrecision = "fp32"
		return cfg
	}
	// Same sizing rule as cmd/hps: cache relative to the node's shard,
	// compaction once stale copies exceed the live model size.
	shard := s.spec.SparseParams / int64(s.nodes)
	cacheEntries := max(int(float64(shard)*s.cacheFrac), 128)
	cfg.LRUEntries = cacheEntries / 2
	cfg.LFUEntries = cacheEntries - cacheEntries/2
	cfg.SSDThresholdBytes = 2 * shard * int64(8+embedding.EncodedSize(s.spec.EmbeddingDim))
	cfg.Dir = filepath.Join(dir, "nodes")
	return cfg
}

// rig is one set-up instance of a workload: shard children (multi-process
// shapes) plus the trainer built against them.
type rig struct {
	dir    string
	shards *shardSet
	cfg    trainer.Config
	tr     *trainer.Trainer
	newDur time.Duration // trainer.New alone
}

// build spawns the shape's shards (if any) and constructs its trainer.
func (s shape) build(e *env, tag string) (*rig, error) {
	r := &rig{dir: filepath.Join(e.runDir, s.name+"-"+tag)}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	var addrs map[int]string
	if s.shards > 0 {
		set, err := spawnShards(e.hpsBin, r.dir, s.shards, s.shardModel, s.shardCacheFrac, e.seed)
		if err != nil {
			return nil, err
		}
		r.shards, addrs = set, set.addrs()
	}
	r.cfg = s.trainerConfig(e, r.dir, addrs)
	start := time.Now()
	tr, err := trainer.New(r.cfg)
	if err != nil {
		r.shards.stop()
		return nil, fmt.Errorf("trainer.New: %w", err)
	}
	r.tr, r.newDur = tr, time.Since(start)
	return r, nil
}

// close tears the rig down: trainer first (its final flush goes over the
// wire), then the shards, then the state directory.
func (r *rig) close() error {
	err := r.tr.Close()
	r.shards.stop()
	if rmErr := os.RemoveAll(r.dir); err == nil {
		err = rmErr
	}
	return err
}
