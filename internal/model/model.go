// Package model defines the CTR model specifications evaluated in the paper.
//
// Table 3 of the paper lists five production models (A–E) ranging from
// 8x10^9 to 2x10^11 sparse parameters (300 GB to 10 TB) trained on MPI
// clusters of 75–150 nodes. This package records those specifications and
// provides scaled-down replicas that preserve the ratios that drive the
// system's behaviour — non-zeros per example, sparse:dense parameter ratio,
// and relative model sizes — so the experiments can run on a single machine.
package model

import (
	"fmt"
	"math"
)

// Spec describes one CTR prediction model.
type Spec struct {
	// Name is the paper's model identifier ("A".."E").
	Name string
	// NonZerosPerExample is the number of non-zero sparse features per
	// training example (Table 3 column "#Non-zeros").
	NonZerosPerExample int
	// SparseParams is the number of sparse (embedding) parameters.
	SparseParams int64
	// DenseParams is the number of dense (fully-connected) parameters.
	DenseParams int64
	// SizeGB is the total model size in gigabytes as reported by the paper.
	SizeGB float64
	// MPINodes is the size of the MPI cluster used to train this model in
	// production (the baseline of Section 7.1).
	MPINodes int
	// EmbeddingDim is the per-feature embedding vector width.
	EmbeddingDim int
	// HiddenLayers are the fully-connected layer widths above the embedding.
	HiddenLayers []int
	// PaperSpeedup is the HPS-4 vs MPI speedup reported in Table 4, printed
	// beside the measured speedup by `hps -baseline` (0 for non-paper specs).
	PaperSpeedup float64
}

// String implements fmt.Stringer.
func (s Spec) String() string {
	return fmt.Sprintf("model %s: nnz=%d sparse=%d dense=%d size=%.0fGB mpi=%d",
		s.Name, s.NonZerosPerExample, s.SparseParams, s.DenseParams, s.SizeGB, s.MPINodes)
}

// PaperSpecs returns the five models of Table 3 with the paper's numbers.
// Embedding dimensions are chosen so that the per-parameter footprint
// (embedding + Adagrad state) matches the reported total size.
func PaperSpecs() []Spec {
	return []Spec{
		{
			Name: "A", NonZerosPerExample: 100,
			SparseParams: 8e9, DenseParams: 7e5,
			SizeGB: 300, MPINodes: 100,
			EmbeddingDim: 4, HiddenLayers: []int{512, 256, 128},
			PaperSpeedup: 1.8,
		},
		{
			Name: "B", NonZerosPerExample: 100,
			SparseParams: 2e10, DenseParams: 2e4,
			SizeGB: 600, MPINodes: 80,
			EmbeddingDim: 4, HiddenLayers: []int{64, 32},
			PaperSpeedup: 2.7,
		},
		{
			Name: "C", NonZerosPerExample: 500,
			SparseParams: 6e10, DenseParams: 2e6,
			SizeGB: 2000, MPINodes: 75,
			EmbeddingDim: 4, HiddenLayers: []int{1024, 512, 256},
			PaperSpeedup: 4.8,
		},
		{
			Name: "D", NonZerosPerExample: 500,
			SparseParams: 1e11, DenseParams: 4e6,
			SizeGB: 6000, MPINodes: 150,
			EmbeddingDim: 8, HiddenLayers: []int{1500, 1024, 512},
			PaperSpeedup: 2.2,
		},
		{
			Name: "E", NonZerosPerExample: 500,
			SparseParams: 2e11, DenseParams: 7e6,
			SizeGB: 10000, MPINodes: 128,
			EmbeddingDim: 8, HiddenLayers: []int{2000, 1200, 800},
			PaperSpeedup: 2.6,
		},
	}
}

// Get returns the paper spec with the given name, or false if no such model.
func Get(name string) (Spec, bool) {
	for _, s := range PaperSpecs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Scaled returns a copy of the spec with the sparse parameter universe and
// dense network shrunk by the given factor while preserving the quantities
// that drive system behaviour: non-zeros per example, embedding dimension,
// sparse:dense ordering, and the MPI node count used for cost normalization.
func (s Spec) Scaled(factor int64) Spec {
	if factor <= 1 {
		return s
	}
	out := s
	out.Name = s.Name + "-scaled"
	out.SparseParams = maxInt64(1000, s.SparseParams/factor)
	out.DenseParams = maxInt64(100, s.DenseParams/factor)
	out.SizeGB = s.SizeGB / float64(factor)
	out.HiddenLayers = hiddenLayersForBudget(out.DenseParams, s.EmbeddingDim)
	out.PaperSpeedup = s.PaperSpeedup
	return out
}

// BenchScale is the default down-scaling factor applied when running the
// paper's configurations as benchmarks on one machine: 10^11 sparse
// parameters become ~10^5, keeping every cross-model ratio intact.
const BenchScale = 1_000_000

// TinySpec returns a minimal model used by the quickstart example and by
// unit tests: a few thousand sparse parameters, a small dense tower.
func TinySpec() Spec {
	return Spec{
		Name:               "tiny",
		NonZerosPerExample: 20,
		SparseParams:       20000,
		DenseParams:        2000,
		SizeGB:             0.001,
		MPINodes:           4,
		EmbeddingDim:       8,
		HiddenLayers:       []int{32, 16},
	}
}

// hiddenLayersForBudget picks fully-connected layer widths whose parameter
// count approximates the budget for a network whose input is a pooled
// embedding of the given dimension.
func hiddenLayersForBudget(budget int64, inputDim int) []int {
	if inputDim <= 0 {
		inputDim = 8
	}
	if budget < int64(inputDim*4) {
		return []int{4}
	}
	// Two hidden layers of equal width h: params ≈ in*h + h*h + h + h + 1.
	// Solve h^2 + (in+2)h - budget = 0.
	in := float64(inputDim)
	b := float64(budget)
	h := (-(in + 2) + math.Sqrt((in+2)*(in+2)+4*b)) / 2
	w := int(h)
	if w < 4 {
		w = 4
	}
	if w > 4096 {
		w = 4096
	}
	return []int{w, w}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
