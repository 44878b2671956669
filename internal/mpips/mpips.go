// Package mpips implements the baseline the paper compares against: the
// MPI-cluster in-memory distributed parameter server used in production since
// 2013 (Sections 1.1 and 7.1).
//
// The baseline shards the full model across the main memory of N CPU-only
// nodes. Each node streams its own training batches from HDFS, pulls the
// referenced parameters from the owning nodes over the data-center network,
// computes gradients on its CPUs, and pushes the gradients back.
//
// The reproduction trains the actual model through a single representative
// node (all nodes run the same data-parallel loop, so one node's learning
// behaviour is representative) while the node counts the work of each batch
// — HDFS streaming, parameter pull/push over Ethernet, and CPU compute — for
// hw.Model to price, and throughput scales by the node count. Cluster-level accuracy
// matches the hierarchical system because both see equivalent data and use
// the same optimizer (Fig 3b).
package mpips

import (
	"fmt"
	"time"

	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/hw"
	"hps/internal/keys"
	"hps/internal/metrics"
	"hps/internal/model"
	"hps/internal/reference"
)

// Config configures the MPI-cluster baseline.
type Config struct {
	// Nodes is the MPI cluster size (75-150 in Table 3).
	Nodes int
	// Spec is the model being trained.
	Spec model.Spec
	// Profile describes one CPU-only node; zero value uses hw.DefaultMPINode.
	Profile hw.NodeProfile
	// Seed seeds model initialization.
	Seed int64
}

// Breakdown reports the cumulative modelled time of each baseline stage for
// the representative node: hw.Model of the work it counted.
type Breakdown struct {
	// ReadExamples is the HDFS streaming time.
	ReadExamples time.Duration
	// PullPush is the parameter pull/push network time.
	PullPush time.Duration
	// Compute is the CPU forward/backward time.
	Compute time.Duration
}

// Total returns the per-node batch-loop time (the stages are not overlapped
// in the baseline).
func (b Breakdown) Total() time.Duration { return b.ReadExamples + b.PullPush + b.Compute }

// Cluster is the MPI-cluster baseline trainer: a flat, single-tier parameter
// server whose whole model lives in cluster main memory, with pulls and
// pushes crossing the data-center network. It is not safe for concurrent
// use.
type Cluster struct {
	cfg     Config
	trainer *reference.Trainer
	work    hw.Work
	// examples and batches count the representative node's training.
	examples int64
	batches  int64
}

// New constructs the baseline cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("mpips: need at least one node, have %d", cfg.Nodes)
	}
	if cfg.Spec.EmbeddingDim <= 0 {
		return nil, fmt.Errorf("mpips: model spec has no embedding dimension")
	}
	if cfg.Profile.CPU.FLOPS == 0 {
		cfg.Profile = hw.DefaultMPINode()
	}
	return &Cluster{
		cfg: cfg,
		trainer: reference.New(reference.Config{
			EmbeddingDim: cfg.Spec.EmbeddingDim,
			Hidden:       cfg.Spec.HiddenLayers,
			Seed:         cfg.Seed,
		}),
	}, nil
}

// Nodes returns the configured cluster size.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// Trainer exposes the underlying model for evaluation.
func (c *Cluster) Trainer() *reference.Trainer { return c.trainer }

// TrainBatch trains the model on one per-node batch and counts its work:
// HDFS streaming, remote parameter pull and gradient push over the network,
// and CPU compute.
func (c *Cluster) TrainBatch(b *dataset.Batch) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	c.accountBatch(b)
	c.trainer.TrainBatch(b)
	c.examples += int64(b.Len())
	c.batches++
	return nil
}

// accountBatch counts the per-node work of one batch without performing the
// actual learning — the work is independent of the gradient math, so it can
// be exercised (and tested) on its own.
func (c *Cluster) accountBatch(b *dataset.Batch) {
	// 1. Stream the batch from HDFS.
	c.work.Add(hw.Ops(hw.ResHDFS, 1, float64(b.ByteSize())))

	// 2. Pull the referenced parameters. A 1/Nodes fraction lives locally;
	// the rest crosses the network in both directions (pull values now, push
	// gradients after the batch).
	working := len(b.Keys())
	remoteFraction := float64(c.cfg.Nodes-1) / float64(c.cfg.Nodes)
	remoteBytes := int64(float64(cluster.PayloadBytes(c.cfg.Spec.EmbeddingDim, working, working)) * remoteFraction)
	c.work.Add(hw.Ops(hw.ResNetwork, 2, 2*float64(remoteBytes)))

	// 3. Compute gradients on the CPU.
	flopsPerExample := c.trainer.Network().FLOPsPerExample() +
		float64(6*c.cfg.Spec.EmbeddingDim*c.cfg.Spec.NonZerosPerExample)
	c.work.Add(hw.Ops(hw.ResCPU, 1, flopsPerExample*float64(b.Len())))
}

// Predict returns the model's click probability for a feature set.
func (c *Cluster) Predict(features []keys.Key) float32 { return c.trainer.Predict(features) }

// Evaluate returns the model AUC over n fresh examples from gen.
func (c *Cluster) Evaluate(gen *dataset.Generator, n int) float64 {
	return c.trainer.Evaluate(gen, n)
}

// Breakdown returns the per-stage modelled time of the representative node.
func (c *Cluster) Breakdown() Breakdown {
	t := hw.Model(c.cfg.Profile, c.work)
	return Breakdown{ReadExamples: t[hw.ResHDFS], PullPush: t[hw.ResNetwork], Compute: t[hw.ResCPU]}
}

// PerNodeBatchTime returns the average modelled time a node spends per batch.
func (c *Cluster) PerNodeBatchTime() time.Duration {
	if c.batches == 0 {
		return 0
	}
	return c.Breakdown().Total() / time.Duration(c.batches)
}

// Throughput returns the cluster-wide training throughput: every node
// processes its own batches in parallel, so the cluster trains Nodes times
// the representative node's examples in the representative node's time.
func (c *Cluster) Throughput() metrics.Throughput {
	return metrics.Throughput{
		Examples: c.examples * int64(c.cfg.Nodes),
		Elapsed:  c.Breakdown().Total(),
	}
}

// ExamplesTrained returns the number of examples the representative node has
// trained on.
func (c *Cluster) ExamplesTrained() int64 { return c.examples }
