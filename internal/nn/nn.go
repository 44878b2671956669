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
// and multiplies only those columns; the backward passes carry the loss
// gradient as its non-zero rows and multiply only those.
//
// There are two ways to take a training step. Forward + Backward + Apply is
// the reference: it materializes the dense gradient and hands it to any
// optimizer.Dense. Forward + BackwardApply is what the trainer runs: one fused
// pass under Adagrad that never builds the gradient, computes a hidden
// layer's input gradient only on the units ReLU kept and touches only the
// coordinates whose gradient is non-zero, bit-identical to the reference.
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
// logistic output. It is not safe for concurrent use; each GPU worker holds
// its own replica (the paper pins dense parameters in every GPU's HBM,
// Appendix C.4).
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

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// NumLayers returns the number of weight layers (hidden layers + output).
func (n *Network) NumLayers() int { return len(n.layers) }

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
	// writes them; the products and the rank-1 update read only these.
	nz   [][]int32
	kept [][]float32
	// rows and coef carry a layer's output gradient as its non-zero rows and
	// their values.
	rows []int32
	coef []float32
	// deltas are the backward passes' per-layer gradient buffers, allocated
	// lazily (a forward-only caller never needs them) and reused across
	// examples.
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

// Gradients holds the materialized dense-parameter gradient of the reference
// step: Backward accumulates into it and Apply hands it to the optimizer.
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

// Backward computes gradients of the log-loss at (pred, label) for the
// forward pass recorded in acts, accumulates dense gradients into g, and
// returns the gradient with respect to the network input (the pooled
// embedding). The returned slice is backed by acts' reusable scratch: it
// stays valid until the next Backward call on the same Activations, so the
// per-example hot path allocates nothing.
func (n *Network) Backward(acts *Activations, pred, label float32, g *Gradients) []float32 {
	// dL/dlogit for sigmoid + cross-entropy is (pred - label).
	delta := acts.deltaBuf(len(n.layers), 1)
	delta[0] = pred - label
	for i := len(n.layers) - 1; i >= 0; i-- {
		l := n.layers[i]
		in := acts.values[i]
		// Accumulate weight and bias gradients.
		tensor.OuterAccum(g.w[i], delta, in)
		tensor.Axpy(1, delta, g.b[i])
		// Propagate to every column of the layer input through delta's
		// non-zero rows (MatTVecRows overwrites the buffer).
		rows, coef := tensor.NonZero(delta, acts.rows, acts.coef)
		prev := acts.deltaBuf(i, l.w.Cols)
		tensor.MatTVecRows(l.w, rows, coef, prev)
		if i > 0 {
			// The stored activation of the previous hidden layer is
			// post-ReLU; zero gradient where the activation was clipped.
			tensor.ReLUGrad(in, prev)
		}
		delta = prev
	}
	return delta
}

// BackwardApply is Backward followed by Apply under Adagrad, fused into one
// pass that never materializes the gradient: it updates the parameters and
// state in place and returns the gradient with respect to the network input,
// backed by acts' scratch like Backward's. Layer by layer, top down, it
// carries delta as its non-zero rows and propagates it through the layer's
// weights as they were before this example's update (exactly what Backward
// reads, since there Apply runs after every layer's Backward) — on a hidden
// layer only into the units Forward listed, because ReLU's derivative zeroes
// the rest — and then applies the layer's rank-1 weight gradient delta ⊗ in
// over those rows and the listed columns of in: under Adagrad a zero gradient
// changes nothing. Parameters, state (given NewDenseState's initialization)
// and the returned gradient are bit-identical to Zero + Backward + Apply; it
// allocates nothing.
func (n *Network) BackwardApply(acts *Activations, pred, label float32, opt optimizer.Adagrad, state *DenseState) []float32 {
	rows, coef := acts.rows[:0], acts.coef[:0]
	if d := pred - label; d != 0 {
		rows, coef = append(rows, 0), append(coef, d)
	}
	for i := len(n.layers) - 1; i > 0; i-- {
		l, cols := n.layers[i], acts.nz[i]
		grad := acts.deltaBuf(i, l.w.Cols)[:len(cols)]
		tensor.MatTVecRowsCols(l.w, rows, coef, cols, grad)
		n.applyRank1(i, opt, state, rows, coef, acts)
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
	n.applyRank1(0, opt, state, rows, coef, acts)
	return inGrad
}

// The bias of a unit is the weight of an input that is always 1, so its
// gradient is delta itself: the rank-1 update over that one column.
var biasCol, biasIn = []int32{0}, []float32{1}

// applyRank1 applies layer i's weight gradient delta ⊗ in and bias gradient
// delta, for delta given by its non-zero rows and their values.
func (n *Network) applyRank1(i int, opt optimizer.Adagrad, state *DenseState, rows []int32, coef []float32, acts *Activations) {
	l := n.layers[i]
	opt.ApplyOuter(l.w.Data, state.w[i], l.w.Cols, rows, coef, acts.nz[i], acts.kept[i])
	opt.ApplyOuter(l.b, state.b[i], 1, rows, coef, biasCol, biasIn)
}

// DenseState holds optimizer state for every dense parameter block.
type DenseState struct {
	w [][]float32
	b [][]float32
}

// NewDenseState allocates optimizer state for the network under the given
// dense optimizer. Adagrad accumulators start at InitialAccumulator rather
// than at the zero the optimizer would lazily replace: Apply touches every
// coordinate, so after the first example the two are the same state, but
// BackwardApply visits only non-zero gradients — started eagerly, its state
// equals Apply's on every coordinate, and two replicas that first touch the
// same coordinate do not both add the initial value before their states are
// summed by Commit.
func (n *Network) NewDenseState(opt optimizer.Dense) *DenseState {
	var initial float32
	if a, ok := opt.(optimizer.Adagrad); ok {
		initial = a.InitialAccumulator
	}
	s := &DenseState{}
	for _, l := range n.layers {
		s.w = append(s.w, filled(opt.StateSize(len(l.w.Data)), initial))
		s.b = append(s.b, filled(opt.StateSize(len(l.b)), initial))
	}
	return s
}

func filled(n int, v float32) []float32 {
	out := make([]float32, n)
	if v != 0 {
		for i := range out {
			out[i] = v
		}
	}
	return out
}

// CopyFrom overwrites s with other's state; the two must have been allocated
// for the same network shape and optimizer.
func (s *DenseState) CopyFrom(other *DenseState) {
	for i := range s.w {
		copy(s.w[i], other.w[i])
		copy(s.b[i], other.b[i])
	}
}

// Commit folds a replica's training run into s, the stored state, the way
// Network.Commit folds the parameters: Adagrad's accumulator is a sum of
// squared gradients, so two replicas' contributions add.
func (s *DenseState) Commit(orig, final *DenseState) {
	for i := range s.w {
		commit(s.w[i], orig.w[i], final.w[i])
		commit(s.b[i], orig.b[i], final.b[i])
	}
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
// since its last Zero.
func (n *Network) Apply(opt optimizer.Dense, state *DenseState, g *Gradients) {
	for i, l := range n.layers {
		opt.ApplyDense(l.w.Data, state.w[i], g.w[i].Data)
		opt.ApplyDense(l.b, state.b[i], g.b[i])
	}
}

// FlattenParams appends all network parameters into dst (weights then bias,
// layer by layer). It is used to replicate dense parameters across GPUs.
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

// Clone returns a deep copy of the network (used to give each simulated GPU
// its own dense replica).
func (n *Network) Clone() *Network {
	out := &Network{cfg: n.cfg}
	for _, l := range n.layers {
		nl := layer{w: l.w.Clone(), b: append([]float32(nil), l.b...)}
		out.layers = append(out.layers, nl)
	}
	return out
}

// CopyFrom overwrites n's parameters with other's; the two must have the same
// shape. Unlike Clone it allocates nothing, so a replica can be refreshed on
// the training hot path.
func (n *Network) CopyFrom(other *Network) {
	for i, l := range n.layers {
		copy(l.w.Data, other.layers[i].w.Data)
		copy(l.b, other.layers[i].b)
	}
}

// Commit folds a replica's training run into n, the stored copy: orig is the
// replica as it was checked out of n and final the same replica after
// training. Every stored parameter becomes final + (stored - orig) — the
// formula of hbmps.CommitBlock, with its exactness argument: bit-for-bit final
// where nothing else was committed since the check-out (stored == orig, so the
// correction is an exact zero), and the base value plus both contributions
// where a peer replica's commit landed in between.
func (n *Network) Commit(orig, final *Network) {
	for i, l := range n.layers {
		commit(l.w.Data, orig.layers[i].w.Data, final.layers[i].w.Data)
		commit(l.b, orig.layers[i].b, final.layers[i].b)
	}
}

func commit(stored, orig, final []float32) {
	for j, f := range final {
		stored[j] = f + (stored[j] - orig[j])
	}
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
