// Package nn implements the dense portion of the CTR prediction network of
// Figure 1: the fully-connected layers that sit on top of the embedding
// layer, with a sigmoid click-probability output trained by binary
// cross-entropy.
//
// The sparse embedding parameters live in the hierarchical parameter server;
// this package only sees the pooled embedding vector of an example. The
// gradient of the loss with respect to that input vector is returned by
// Backward so the caller can push it back into the embedding parameters
// (with sum pooling, every referenced feature receives that same gradient).
//
// ReLU zeroes about half of each hidden layer's units, and every pass skips
// them. Forward lists each layer input's non-zero units as it applies ReLU
// and multiplies only those columns; Backward carries the loss gradient as its
// non-zero rows and makes one pass over them per hidden layer
// (tensor.MatTVecRowsColsAccum): for four rows at a time it propagates them
// only into the units Forward listed (ReLU's derivative zeroes the rest) and
// adds the layer's weight gradient on those rows and listed columns — bit
// for bit the materialized gradient, whose skipped terms are all exact zeros.
//
// A training step is mini-batch: Forward + Backward per example accumulate the
// dense gradient into a Gradients, and one Apply per batch hands the sum to
// the optimizer. Forward and Backward only read the Network, so any number of
// workers may run them against one Network, each with its own Activations and
// Gradients, as long as nothing Applies meanwhile.
package nn

import (
	"fmt"
	"math/rand"

	"hps/internal/optimizer"
	"hps/internal/tensor"
)

// Config describes the dense network architecture.
type Config struct {
	// InputDim is the width of the pooled embedding input.
	InputDim int
	// Hidden are the hidden fully-connected layer widths; each hidden layer
	// uses a ReLU activation. The output layer is a single sigmoid unit.
	Hidden []int
	// Seed seeds weight initialization.
	Seed int64
}

type layer struct {
	w *tensor.Matrix // out x in
	b []float32
}

// Network is a feed-forward network with ReLU hidden layers and a single
// logistic output. Forward and Backward read it and may run concurrently;
// Apply, SetParams and the other writers need the caller's exclusion.
type Network struct {
	cfg    Config
	layers []layer
}

// New constructs a network with Xavier-initialized weights.
func New(cfg Config) *Network {
	if cfg.InputDim <= 0 {
		panic(fmt.Sprintf("nn: invalid input dim %d", cfg.InputDim))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dims := append([]int{cfg.InputDim}, cfg.Hidden...)
	dims = append(dims, 1)
	n := &Network{cfg: cfg}
	for i := 1; i < len(dims); i++ {
		l := layer{w: tensor.NewMatrix(dims[i], dims[i-1]), b: make([]float32, dims[i])}
		l.w.FillRandom(rng)
		n.layers = append(n.layers, l)
	}
	return n
}

// ParamCount returns the total number of dense parameters (weights + biases).
func (n *Network) ParamCount() int64 {
	var total int64
	for _, l := range n.layers {
		total += int64(len(l.w.Data)) + int64(len(l.b))
	}
	return total
}

// FLOPsPerExample estimates the floating point operations of one forward and
// backward pass for a single example (≈ 6x the weight count: 2x forward, 4x
// backward). The GPU and CPU cost models consume this estimate.
func (n *Network) FLOPsPerExample() float64 {
	var weights int64
	for _, l := range n.layers {
		weights += int64(len(l.w.Data))
	}
	return 6 * float64(weights)
}

// Activations holds the per-layer outputs of a forward pass and the scratch
// of the backward passes, reused across examples to avoid allocation.
type Activations struct {
	// values[0] is the input; values[i] is the post-activation output of
	// layer i-1. The final entry is the pre-sigmoid logit (length 1).
	values [][]float32
	// nz[i] lists, ascending, the units j of layer i's input with
	// values[i][j] != 0, and kept[i] holds their values, gathered. Forward
	// writes them; the products and the weight gradients read only these.
	nz   [][]int32
	kept [][]float32
	// rows and coef carry a layer's output gradient as its non-zero rows and
	// their values.
	rows []int32
	coef []float32
	// deltas are Backward's per-layer gradient buffers, allocated lazily (a
	// forward-only caller never needs them) and reused across examples.
	deltas [][]float32
}

// deltaBuf returns the reusable gradient buffer of width n for layer slot i.
func (a *Activations) deltaBuf(i, n int) []float32 {
	for len(a.deltas) <= i {
		a.deltas = append(a.deltas, nil)
	}
	if cap(a.deltas[i]) < n {
		a.deltas[i] = make([]float32, n)
	}
	return a.deltas[i][:n]
}

// NewActivations allocates activation buffers matching the network shape.
// They are carved from one array per element type: serving builds an
// Activations for every merged predict batch.
func (n *Network) NewActivations() *Activations {
	inputs, widestOut := 0, 0
	for _, l := range n.layers {
		inputs += l.w.Cols
		widestOut = max(widestOut, l.w.Rows)
	}
	floats := make([]float32, 2*inputs+1+widestOut)
	ints := make([]int32, inputs+widestOut)
	a := &Activations{
		values: make([][]float32, len(n.layers)+1),
		nz:     make([][]int32, len(n.layers)),
		kept:   make([][]float32, len(n.layers)),
	}
	for i, l := range n.layers {
		a.values[i], a.kept[i], a.nz[i] = carve(&floats, l.w.Cols), carve(&floats, l.w.Cols), carve(&ints, l.w.Cols)
	}
	a.values[len(n.layers)] = carve(&floats, 1)
	a.rows, a.coef = carve(&ints, widestOut), carve(&floats, widestOut)
	return a
}

// carve cuts the next n elements off *buf, capped so that they cannot grow
// into their neighbours.
func carve[T any](buf *[]T, n int) []T {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

// Input returns the buffer the caller fills with the pooled embedding before
// calling Forward.
func (a *Activations) Input() []float32 { return a.values[0] }

// Forward runs the network on the input stored in acts.Input() and returns
// the predicted click probability. It lists the input's non-zero units, and
// each hidden layer's as it applies ReLU, and each layer's product reads only
// the listed columns.
func (n *Network) Forward(acts *Activations) float32 {
	acts.nz[0], acts.kept[0] = tensor.NonZero(acts.values[0], acts.nz[0], acts.kept[0])
	last := len(n.layers) - 1
	for i, l := range n.layers {
		out := acts.values[i+1]
		tensor.MatVecCols(l.w, acts.nz[i], acts.kept[i], out)
		if i == last {
			tensor.Add(l.b, out)
			break
		}
		acts.nz[i+1], acts.kept[i+1] = tensor.BiasReLU(out, l.b, acts.nz[i+1], acts.kept[i+1])
	}
	return tensor.Sigmoid(acts.values[last+1][0])
}

// Gradients holds a materialized dense-parameter gradient: Backward
// accumulates into it, example by example, and Apply hands it to the
// optimizer.
type Gradients struct {
	w []*tensor.Matrix
	b [][]float32
}

// NewGradients allocates a zeroed gradient accumulator matching the network.
func (n *Network) NewGradients() *Gradients {
	g := &Gradients{}
	for _, l := range n.layers {
		g.w = append(g.w, tensor.NewMatrix(l.w.Rows, l.w.Cols))
		g.b = append(g.b, make([]float32, len(l.b)))
	}
	return g
}

// Zero clears the accumulator.
func (g *Gradients) Zero() {
	for i := range g.w {
		g.w[i].Zero()
		for j := range g.b[i] {
			g.b[i][j] = 0
		}
	}
}

// Add accumulates other, a gradient of the same network shape, into g.
func (g *Gradients) Add(other *Gradients) {
	for i := range g.w {
		tensor.Add(other.w[i].Data, g.w[i].Data)
		tensor.Add(other.b[i], g.b[i])
	}
}

// Backward computes gradients of the log-loss at (pred, label) for the
// forward pass recorded in acts, accumulates dense gradients into g, and
// returns the gradient with respect to the network input (the pooled
// embedding). Layer by layer, top down, it carries delta as its non-zero rows
// and, in one pass over them, propagates delta through the layer's weights —
// on a hidden layer only into the listed units, because ReLU's derivative
// zeroes the rest — and adds the layer's weight gradient delta ⊗ in over
// those rows and the columns Forward listed. The input layer propagates into
// every unit (tensor.MatTVecRows), then adds its weight gradient
// (tensor.OuterAccumRowsCols). Every term it skips is an exact zero, so g and
// the returned gradient are bit for bit the dense computation's. The returned
// slice is backed by acts' reusable scratch: it stays valid until the next
// Backward call on the same Activations, so the per-example hot path
// allocates nothing.
func (n *Network) Backward(acts *Activations, pred, label float32, g *Gradients) []float32 {
	// dL/dlogit for sigmoid + cross-entropy is (pred - label).
	rows, coef := acts.rows[:0], acts.coef[:0]
	if d := pred - label; d != 0 {
		rows, coef = append(rows, 0), append(coef, d)
	}
	for i := len(n.layers) - 1; i > 0; i-- {
		l, cols := n.layers[i], acts.nz[i]
		grad := acts.deltaBuf(i, l.w.Cols)[:len(cols)]
		tensor.MatTVecRowsColsAccum(l.w, rows, coef, cols, acts.kept[i], grad, g.w[i], g.b[i])
		// The layer below's delta: grad's non-zero entries, at their units.
		rows, coef = rows[:0], coef[:0]
		for k, v := range grad {
			if v != 0 {
				rows, coef = append(rows, cols[k]), append(coef, v)
			}
		}
	}
	inGrad := acts.deltaBuf(0, n.cfg.InputDim)
	tensor.MatTVecRows(n.layers[0].w, rows, coef, inGrad)
	tensor.OuterAccumRowsCols(g.w[0], g.b[0], rows, coef, acts.nz[0], acts.kept[0])
	return inGrad
}

// DenseState holds optimizer state for every dense parameter block.
type DenseState struct {
	w [][]float32
	b [][]float32
}

// NewDenseState allocates zeroed optimizer state for the network under the
// given dense optimizer; Adagrad starts an accumulator at InitialAccumulator
// on its first step.
func (n *Network) NewDenseState(opt optimizer.Dense) *DenseState {
	s := &DenseState{}
	for _, l := range n.layers {
		s.w = append(s.w, make([]float32, opt.StateSize(len(l.w.Data))))
		s.b = append(s.b, make([]float32, opt.StateSize(len(l.b))))
	}
	return s
}

// Flatten appends the optimizer state into dst (weight state then bias
// state, layer by layer — the checkpointable form, mirroring
// Network.FlattenParams).
func (s *DenseState) Flatten(dst []float32) []float32 {
	for i := range s.w {
		dst = append(dst, s.w[i]...)
		dst = append(dst, s.b[i]...)
	}
	return dst
}

// SetFromFlat overwrites the optimizer state from a flattened representation
// produced by Flatten. It returns an error on length mismatch.
func (s *DenseState) SetFromFlat(flat []float32) error {
	off := 0
	for i := range s.w {
		nw, nb := len(s.w[i]), len(s.b[i])
		if off+nw+nb > len(flat) {
			return fmt.Errorf("nn: flat dense state too short: %d", len(flat))
		}
		copy(s.w[i], flat[off:off+nw])
		off += nw
		copy(s.b[i], flat[off:off+nb])
		off += nb
	}
	if off != len(flat) {
		return fmt.Errorf("nn: flat dense state too long: %d != %d", len(flat), off)
	}
	return nil
}

// Apply updates the network parameters with the gradients accumulated in g
// since its last Zero: one optimizer step per coordinate, however many
// examples g sums.
func (n *Network) Apply(opt optimizer.Dense, state *DenseState, g *Gradients) {
	for i, l := range n.layers {
		opt.ApplyDense(l.w.Data, state.w[i], g.w[i].Data)
		opt.ApplyDense(l.b, state.b[i], g.b[i])
	}
}

// FlattenParams appends all network parameters into dst (weights then bias,
// layer by layer): the form the checkpoint stores and serving receives.
func (n *Network) FlattenParams(dst []float32) []float32 {
	for _, l := range n.layers {
		dst = append(dst, l.w.Data...)
		dst = append(dst, l.b...)
	}
	return dst
}

// SetParams overwrites all network parameters from a flattened representation
// produced by FlattenParams. It returns an error on length mismatch.
func (n *Network) SetParams(flat []float32) error {
	off := 0
	for _, l := range n.layers {
		nw := len(l.w.Data)
		nb := len(l.b)
		if off+nw+nb > len(flat) {
			return fmt.Errorf("nn: flat params too short: %d", len(flat))
		}
		copy(l.w.Data, flat[off:off+nw])
		off += nw
		copy(l.b, flat[off:off+nb])
		off += nb
	}
	if off != len(flat) {
		return fmt.Errorf("nn: flat params too long: %d != %d", len(flat), off)
	}
	return nil
}

// PoolSum sums the given embedding vectors into dst (which must have the
// network input dimension); missing vectors are skipped. This is the
// embedding pooling used between the sparse and dense parts of the model.
func PoolSum(dst []float32, vecs [][]float32) {
	for i := range dst {
		dst[i] = 0
	}
	for _, v := range vecs {
		for i := 0; i < len(dst) && i < len(v); i++ {
			dst[i] += v[i]
		}
	}
}
