// Package reference implements a plain, single-process CTR trainer: an
// in-memory embedding table feeding the dense network, trained with Adagrad
// one mini-batch step at a time.
//
// It serves three roles in the reproduction:
//
//   - the "Baseline DNN" and "Hash+DNN" rows of Tables 1 and 2 (trained on
//     raw or OP+OSRP-hashed features),
//   - the learner inside the MPI-cluster baseline (internal/mpips), whose
//     cost model wraps this trainer,
//   - the accuracy oracle the hierarchical parameter server is compared
//     against in Fig 3(b): both must converge to the same quality, and a
//     one-GPU hierarchical run must reproduce TrainBatch bit for bit.
package reference

import (
	"fmt"

	"hps/internal/dataset"
	"hps/internal/embedding"
	"hps/internal/keys"
	"hps/internal/metrics"
	"hps/internal/nn"
	"hps/internal/optimizer"
	"hps/internal/tensor"
)

// Config configures a reference trainer.
type Config struct {
	// EmbeddingDim is the per-feature embedding width.
	EmbeddingDim int
	// Hidden are the dense tower layer widths.
	Hidden []int
	// SparseLR / DenseLR are the Adagrad learning rates (defaults 0.05 / 0.01).
	SparseLR, DenseLR float32
	// Seed seeds parameter initialization.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.EmbeddingDim <= 0 {
		c.EmbeddingDim = 8
	}
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 32}
	}
	if c.SparseLR <= 0 {
		c.SparseLR = 0.05
	}
	if c.DenseLR <= 0 {
		c.DenseLR = 0.01
	}
	return c
}

// Trainer is a single-process CTR model. It is not safe for concurrent use.
type Trainer struct {
	cfg        Config
	table      *embedding.Table
	net        *nn.Network
	denseState *nn.DenseState
	sparseOpt  optimizer.Sparse
	denseOpt   optimizer.Dense
	acts       *nn.Activations
	grads      *nn.Gradients
	examples   int64

	// TrainBatch's scratch: the batch's touched embeddings in first-touch
	// order, the row of each in sums (dim floats per row, the summed input
	// gradient) and the example that last credited it.
	rowOf   map[keys.Key]int
	touched []*embedding.Value
	sums    []float32
	last    []int
	vecs    [][]float32
}

// New constructs a trainer.
func New(cfg Config) *Trainer {
	cfg = cfg.withDefaults()
	net := nn.New(nn.Config{InputDim: cfg.EmbeddingDim, Hidden: cfg.Hidden, Seed: cfg.Seed})
	denseOpt := optimizer.Adagrad{LR: cfg.DenseLR, InitialAccumulator: 0.1}
	t := &Trainer{
		cfg:        cfg,
		table:      embedding.NewTable(cfg.EmbeddingDim),
		net:        net,
		denseState: net.NewDenseState(denseOpt),
		sparseOpt:  optimizer.Adagrad{LR: cfg.SparseLR, InitialAccumulator: 0.1},
		denseOpt:   denseOpt,
		acts:       net.NewActivations(),
		grads:      net.NewGradients(),
		rowOf:      make(map[keys.Key]int),
	}
	return t
}

// EmbeddingDim returns the embedding width.
func (t *Trainer) EmbeddingDim() int { return t.cfg.EmbeddingDim }

// Network returns the dense tower (for parameter counting).
func (t *Trainer) Network() *nn.Network { return t.net }

// DenseState returns the dense tower's optimizer state.
func (t *Trainer) DenseState() *nn.DenseState { return t.denseState }

// Examples returns the number of training examples seen.
func (t *Trainer) Examples() int64 { return t.examples }

// EmbeddingCount returns the number of distinct sparse parameters
// materialized so far (the "# Nonzero Weights" of Tables 1-2 counts each
// embedding element; see NonZeroWeights).
func (t *Trainer) EmbeddingCount() int { return t.table.Len() }

// NonZeroWeights returns the number of individual non-zero model weights:
// embedding elements plus dense parameters.
func (t *Trainer) NonZeroWeights() int64 {
	var nz int64
	t.table.Range(func(_ uint64, v *embedding.Value) bool {
		for _, w := range v.Weights {
			if w != 0 {
				nz++
			}
		}
		return true
	})
	return nz + t.net.ParamCount()
}

// lookup returns (creating if needed) the embedding value for a feature.
func (t *Trainer) lookup(k keys.Key) *embedding.Value {
	if v := t.table.Get(uint64(k)); v != nil {
		return v
	}
	v := embedding.NewKeyedValue(t.cfg.EmbeddingDim, t.cfg.Seed, uint64(k))
	t.table.Put(uint64(k), v)
	return v
}

// Predict returns the click probability for a feature set without training.
func (t *Trainer) Predict(features []keys.Key) float32 {
	vecs := make([][]float32, 0, len(features))
	for _, k := range features {
		if v := t.table.Get(uint64(k)); v != nil {
			vecs = append(vecs, v.Weights)
		}
	}
	nn.PoolSum(t.acts.Input(), vecs)
	return t.net.Forward(t.acts)
}

// TrainExample trains on one example, a batch of one, and returns its
// log-loss before the update.
func (t *Trainer) TrainExample(ex dataset.Example) float64 {
	return t.TrainBatch(&dataset.Batch{Examples: []dataset.Example{ex}})
}

// TrainBatch takes one training step on a mini-batch and returns its mean
// log-loss before the update. Every example reads the parameters as the batch
// found them. The dense gradient, summed over the batch, takes one Apply;
// every embedding the batch references takes one sparse step on the sum of
// the input gradients of the examples that reference it, in example order (a
// feature repeated within an example is credited once).
func (t *Trainer) TrainBatch(b *dataset.Batch) float64 {
	if b.Len() == 0 {
		return 0
	}
	dim := t.cfg.EmbeddingDim
	clear(t.rowOf)
	t.touched, t.sums, t.last = t.touched[:0], t.sums[:0], t.last[:0]
	var loss float64
	for e, ex := range b.Examples {
		t.vecs = t.vecs[:0]
		for _, k := range ex.Features {
			t.vecs = append(t.vecs, t.lookup(k).Weights)
		}
		nn.PoolSum(t.acts.Input(), t.vecs)
		pred := t.net.Forward(t.acts)
		loss += tensor.LogLoss(pred, ex.Label)
		// With sum pooling every referenced feature receives the input gradient.
		inputGrad := t.net.Backward(t.acts, pred, ex.Label, t.grads)
		for _, k := range ex.Features {
			r, ok := t.rowOf[k]
			if !ok {
				r = len(t.touched)
				t.rowOf[k] = r
				t.touched = append(t.touched, t.lookup(k))
				t.sums = append(t.sums, make([]float32, dim)...)
				t.last = append(t.last, -1)
			}
			if t.last[r] == e {
				continue
			}
			t.last[r] = e
			tensor.Add(inputGrad, t.sums[r*dim:(r+1)*dim])
			t.touched[r].Freq++
		}
		t.examples++
	}
	t.net.Apply(t.denseOpt, t.denseState, t.grads)
	t.grads.Zero()
	for r, v := range t.touched {
		t.sparseOpt.ApplySparse(v.Weights, v.G2Sum, t.sums[r*dim:(r+1)*dim])
	}
	return loss / float64(b.Len())
}

// Evaluate computes the AUC of the current model over n fresh examples drawn
// from gen.
func (t *Trainer) Evaluate(gen *dataset.Generator, n int) float64 {
	scores := make([]float64, 0, n)
	labels := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		ex := gen.NextExample()
		scores = append(scores, float64(t.Predict(ex.Features)))
		labels = append(labels, float64(ex.Label))
	}
	return metrics.AUC(scores, labels)
}

// String implements fmt.Stringer.
func (t *Trainer) String() string {
	return fmt.Sprintf("reference.Trainer{dim=%d embeddings=%d examples=%d}",
		t.cfg.EmbeddingDim, t.table.Len(), t.examples)
}
