// Command hps trains a scaled-down replica of one of the paper's production
// CTR models (Table 3, models A-E) end to end through the full hierarchical
// parameter server — HDFS stream -> MEM-PS/SSD-PS pull -> HBM-PS multi-GPU
// training -> synchronized push — and prints the Fig-4-style throughput and
// latency breakdown, optionally alongside the MPI-cluster baseline.
//
// Four modes:
//
//	hps [train flags]      in-process: every simulated node in one process
//	hps serve  -shard i    host one MEM-PS shard (training + online serving)
//	                       behind a TCP server
//	hps driver -shards n   spawn n `hps serve` processes and train against
//	                       them over real sockets; -loadgen additionally
//	                       replays a zipfian query stream against the shards
//	                       while they train and prints the serving report
//	hps loadgen -addrs a,b replay a zipfian query stream against an already
//	                       running cluster's serving tier
//
// Examples:
//
//	go run ./cmd/hps                         # model A at bench scale
//	go run ./cmd/hps -model C -nodes 4 -gpus 8
//	go run ./cmd/hps -model tiny -batches 50 -baseline
//	go run ./cmd/hps driver -model tiny -shards 2 -batches 20
//	go run ./cmd/hps driver -model tiny -shards 2 -batches 40 -loadgen
//	go run ./cmd/hps driver -model tiny -shards 2 -state-dir /data/run -checkpoint-interval 10
//	go run ./cmd/hps driver -model tiny -shards 2 -state-dir /data/run -restore  # resume
//	go run ./cmd/hps loadgen -model tiny -addrs 127.0.0.1:7001,127.0.0.1:7002
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/embedding"
	"hps/internal/hw"
	"hps/internal/metrics"
	"hps/internal/model"
	"hps/internal/mpips"
	"hps/internal/trainer"
)

// defaultScale is the down-scaling factor applied to the paper models by
// every mode's -scale flag.
const defaultScale = model.BenchScale

// trainFlags are the flags shared by the train and driver modes.
type trainFlags struct {
	fs        *flag.FlagSet
	modelName *string
	scale     *int64
	gpus      *int
	batches   *int
	batchSize *int
	inFlight  *int
	cacheFrac *float64
	evalN     *int
	seed      *int64

	stateDir     *string
	checkpoint   *string
	ckptInterval *int
	restore      *bool
	batchPause   *time.Duration

	asyncPush *bool
	pushLag   *int
	ablate    *string
}

// config is the trainer.Config both training modes build from these flags:
// model, batches, checkpoints, and the pipeline depth and push committer.
func (f *trainFlags) config(spec model.Spec, data dataset.Config, topo cluster.Topology) trainer.Config {
	return trainer.Config{
		Spec:               spec,
		Data:               data,
		Topology:           topo,
		BatchSize:          *f.batchSize,
		Batches:            *f.batches,
		Profile:            hw.DefaultGPUNode(),
		Seed:               *f.seed,
		CheckpointPath:     f.checkpointPath(),
		CheckpointInterval: *f.ckptInterval,
		BatchPause:         *f.batchPause,
		MaxInFlight:        *f.inFlight,
		AsyncPush:          *f.asyncPush,
		PushLag:            *f.pushLag,
	}
}

// checkpointPath resolves the effective manifest path: -checkpoint wins, and
// a durable -state-dir implies a default manifest inside it (durable state
// without a resumable cursor would be a trap).
func (f *trainFlags) checkpointPath() string {
	if *f.checkpoint != "" {
		return *f.checkpoint
	}
	if *f.stateDir != "" {
		return filepath.Join(*f.stateDir, "checkpoint.json")
	}
	return ""
}

// resume restores tr from the checkpoint manifest when -restore is set.
func (f *trainFlags) resume(tr *trainer.Trainer) error {
	if !*f.restore {
		return nil
	}
	path := f.checkpointPath()
	if path == "" {
		return fmt.Errorf("-restore needs -checkpoint or -state-dir")
	}
	done, err := tr.Restore(path)
	if err != nil {
		return err
	}
	fmt.Printf("restored checkpoint %s: resuming at batch %d/%d\n", path, done, *f.batches)
	return nil
}

// evaluate prints tr's AUC over -eval held-out examples (none with -eval 0).
func (f *trainFlags) evaluate(tr *trainer.Trainer, data dataset.Config) error {
	if *f.evalN <= 0 {
		return nil
	}
	auc, err := tr.Evaluate(dataset.NewGenerator(data, *f.seed+424243), *f.evalN)
	if err != nil {
		return err
	}
	fmt.Printf("\nAUC over %d held-out examples: %.4f\n", *f.evalN, auc)
	return nil
}

func newTrainFlags(name string) *trainFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &trainFlags{
		fs:        fs,
		modelName: fs.String("model", "A", "model to train: A-E (Table 3, scaled by -scale) or 'tiny'"),
		scale:     fs.Int64("scale", defaultScale, "down-scaling factor applied to the paper models"),
		gpus:      fs.Int("gpus", 4, "GPUs per node"),
		batches:   fs.Int("batches", 30, "batches to train per node"),
		batchSize: fs.Int("batch-size", 256, "examples per batch per node"),
		inFlight:  fs.Int("inflight", 4, "pipeline depth (1 = no prefetch overlap)"),
		cacheFrac: fs.Float64("cache-frac", 0.25, "MEM-PS cache capacity as a fraction of the per-node parameter shard"),
		evalN:     fs.Int("eval", 2000, "examples for the final AUC evaluation (0 to skip)"),
		seed:      fs.Int64("seed", 1, "random seed"),

		stateDir:     fs.String("state-dir", "", "durable state root: SSD-PS shard directories and the default checkpoint manifest (empty: temporary, removed on exit)"),
		checkpoint:   fs.String("checkpoint", "", "checkpoint manifest path (default <state-dir>/checkpoint.json when -state-dir is set)"),
		ckptInterval: fs.Int("checkpoint-interval", 0, "also write a checkpoint every N trained batches (0: only at flush/shutdown)"),
		restore:      fs.Bool("restore", false, "resume from the checkpoint manifest and the recovered shard state before training"),
		batchPause:   fs.Duration("batch-pause", 0, "artificial pause after every trained batch (stretches runs for crash drills)"),

		asyncPush: fs.Bool("async-push", false, "apply merged pushes on a bounded background committer so the pipeline slot frees before the MEM-PS round trip"),
		pushLag:   fs.Int("push-lag", 2, "max outstanding background pushes with -async-push"),
		ablate:    fs.String("ablate-depth", "", "comma-separated pipeline depths (e.g. 1,2,4,8): train the same seeded workload at each depth and print the AUC-vs-depth table"),
	}
}

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hps:", err)
		os.Exit(1)
	}
}

// dispatch runs the subcommand args name, or in-process training when args
// start with a flag.
func dispatch(args []string) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return runTrain(args)
	}
	sub, ok := map[string]func([]string) error{"serve": runServe, "driver": runDriver, "loadgen": runLoadgen}[args[0]]
	if !ok {
		// A bare word that is not a known subcommand is almost certainly a
		// typo for one; running a full default training instead would be a
		// silent surprise.
		return fmt.Errorf("unknown subcommand %q (want serve, driver, loadgen, or train flags)", args[0])
	}
	return sub(args[1:])
}

// parseFlags parses args into fs and rejects positional leftovers.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if rest := fs.Args(); len(rest) > 0 {
		return fmt.Errorf("unexpected argument %q", rest[0])
	}
	return nil
}

// runTrain is the in-process mode (the default, flag-compatible with the
// original command).
func runTrain(args []string) error {
	fs := newTrainFlags("hps")
	nodes := fs.fs.Int("nodes", 2, "number of GPU nodes")
	baseline := fs.fs.Bool("baseline", false, "also run the MPI-cluster baseline and report the modelled speedup")
	if err := parseFlags(fs.fs, args); err != nil {
		return err
	}
	return run(fs, *nodes, *baseline)
}

func resolveSpec(name string, scale int64) (model.Spec, error) {
	if name == "tiny" {
		return model.TinySpec(), nil
	}
	spec, ok := model.Get(name)
	if !ok {
		return model.Spec{}, fmt.Errorf("unknown model %q (want A-E or tiny)", name)
	}
	return spec.Scaled(scale), nil
}

// cacheSizes sizes a MEM-PS cache relative to its parameter shard, so the
// hot set stays resident and the cold tail lives on the SSD-PS, and lets
// SSD-PS compaction trigger once stale copies exceed the live shard size.
func cacheSizes(spec model.Spec, shardParams int64, frac float64) (lru, lfu int, ssdThreshold int64) {
	entries := max(int(float64(shardParams)*frac), 128)
	return entries / 2, entries - entries/2, 2 * shardParams * int64(8+embedding.EncodedSize(spec.EmbeddingDim))
}

func run(fs *trainFlags, nodes int, baseline bool) error {
	spec, err := resolveSpec(*fs.modelName, *fs.scale)
	if err != nil {
		return err
	}
	topo := cluster.Topology{Nodes: nodes, GPUsPerNode: *fs.gpus}
	if err := topo.Validate(); err != nil {
		return err
	}
	data := dataset.ForModel(spec.SparseParams, spec.NonZerosPerExample)
	batches, batchSize, seed := *fs.batches, *fs.batchSize, *fs.seed

	cfg := fs.config(spec, data, topo)
	cfg.LRUEntries, cfg.LFUEntries, cfg.SSDThresholdBytes = cacheSizes(spec, spec.SparseParams/int64(nodes), *fs.cacheFrac)
	cfg.Dir = *fs.stateDir

	if *fs.ablate != "" {
		if *fs.stateDir != "" || *fs.restore || *fs.checkpoint != "" {
			return fmt.Errorf("-ablate-depth sweeps fresh runs; it cannot combine with -state-dir/-checkpoint/-restore")
		}
		return runAblate(fs, spec, data, func(depth int) (*trainer.Trainer, func(), error) {
			c := cfg
			c.MaxInFlight = depth
			tr, err := trainer.New(c)
			return tr, func() {}, err
		})
	}

	fmt.Printf("training model %s: %d sparse params, dim %d, %d non-zeros/example, dense %v\n",
		spec.Name, spec.SparseParams, spec.EmbeddingDim, spec.NonZerosPerExample, spec.HiddenLayers)
	fmt.Printf("topology: %d node(s) x %d GPU(s), %d batches x %d examples/node, pipeline depth %d\n\n",
		nodes, *fs.gpus, batches, batchSize, cfg.MaxInFlight)

	tr, err := trainer.New(cfg)
	if err != nil {
		return err
	}
	defer tr.Close()
	if err := fs.resume(tr); err != nil {
		return err
	}

	// SIGINT/SIGTERM cut the run short but not dirty: Run unwinds, and the
	// deferred Close flushes every shard and publishes a final checkpoint
	// manifest — the resumable-training half of the crash story (kill -9 is
	// the other half, covered by the shards' own durability).
	ctx, cancel := signalContext()
	defer cancel()
	wallStart := time.Now()
	runErr := tr.Run(ctx)
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		return runErr
	}
	wall := time.Since(wallStart)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "hps: interrupted; flushing checkpoint")
		return tr.Close()
	}

	report := tr.Report()
	fmt.Print(report.String())
	fmt.Printf("(simulation wall time %v)\n", wall.Round(time.Millisecond))

	if err := fs.evaluate(tr, data); err != nil {
		return err
	}

	if baseline {
		if err := runBaseline(spec, data, report.Throughput.ExamplesPerSecond(), nodes, batches, batchSize, seed); err != nil {
			return err
		}
	}
	return nil
}

// signalContext returns a context cancelled by SIGINT/SIGTERM. The second
// signal is left to the default handler, so a stuck shutdown can still be
// killed interactively.
func signalContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sigCh:
			signal.Stop(sigCh)
			cancel()
		case <-ctx.Done():
			signal.Stop(sigCh)
		}
	}()
	return ctx, cancel
}

// runBaseline trains the MPI-cluster baseline on the same workload and
// prints the modelled speedup (the Table 4 comparison).
func runBaseline(spec model.Spec, data dataset.Config, hpsRate float64, gpuNodes, batches, batchSize int, seed int64) error {
	mpiNodes := spec.MPINodes
	if mpiNodes <= 0 {
		mpiNodes = 10
	}
	c, err := mpips.New(mpips.Config{Nodes: mpiNodes, Spec: spec, Seed: seed})
	if err != nil {
		return err
	}
	gen := dataset.NewGenerator(data, seed)
	for i := 0; i < batches; i++ {
		if err := c.TrainBatch(gen.NextBatch(batchSize)); err != nil {
			return err
		}
	}
	mpiRate := c.Throughput().ExamplesPerSecond()
	fmt.Printf("\n-- MPI baseline (%d CPU nodes) --\n", mpiNodes)
	bd := c.Breakdown()
	n := time.Duration(batches)
	fmt.Printf("per-node batch time %v (read %v, pull/push %v, compute %v)\n",
		c.PerNodeBatchTime().Round(time.Microsecond), (bd.ReadExamples / n).Round(time.Microsecond),
		(bd.PullPush / n).Round(time.Microsecond), (bd.Compute / n).Round(time.Microsecond))
	fmt.Printf("cluster throughput %.0f examples/s\n", mpiRate)
	if mpiRate > 0 {
		speedup := hpsRate / mpiRate
		fmt.Printf("hierarchical vs MPI speedup: %.2fx raw", speedup)
		fmt.Printf(", %.2fx cost-normalized (1 GPU node ~ %.0f MPI nodes)\n",
			metrics.CostNormalizedSpeedup(speedup, gpuNodes, mpiNodes, hw.CostGPUNodesPerMPINode),
			hw.CostGPUNodesPerMPINode)
		if spec.PaperSpeedup > 0 {
			fmt.Printf("(paper reports %.1fx for model %s at production scale)\n", spec.PaperSpeedup, spec.Name)
		}
	}
	return nil
}
