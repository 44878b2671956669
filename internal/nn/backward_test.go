package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hps/internal/dataset"
	"hps/internal/embedding"
	"hps/internal/keys"
	"hps/internal/optimizer"
	"hps/internal/tensor"
)

var denseOpt = optimizer.Adagrad{LR: 0.01, InitialAccumulator: 0.1}

// The dense towers of the three benchmark shapes (bench/workloads.go).
var (
	hotShape  = Config{InputDim: 16, Hidden: []int{128, 64, 32}, Seed: 1}
	tinyShape = Config{InputDim: 8, Hidden: []int{32, 16}, Seed: 2}
	coldShape = Config{InputDim: 8, Hidden: []int{16, 8}, Seed: 3}
)

// pooledInput fills in with a stand-in for a pooled embedding: the sum of a
// handful of small random vectors.
func pooledInput(rng *rand.Rand, in []float32) {
	for j := range in {
		in[j] = 0
		for k := 0; k < 20; k++ {
			in[j] += (rng.Float32()*2 - 1) * 0.1
		}
	}
}

// firstBitDiff returns the first index at which a and b differ bitwise, or -1.
func firstBitDiff(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// flatGrads returns g's weight and bias gradients, layer by layer.
func flatGrads(g *Gradients) []float32 {
	var out []float32
	for i := range g.w {
		out = append(out, g.w[i].Data...)
		out = append(out, g.b[i]...)
	}
	return out
}

// materializedBackward is the gradient computed densely: delta is a full
// vector at every layer, every weight gradient the whole outer product
// delta ⊗ in added coordinate by coordinate, and a hidden layer's delta the
// product over all of its columns, clipped by the ReLU derivative afterwards.
// It propagates through delta's non-zero rows, in order, so its sums group
// their terms exactly as Backward's do.
func materializedBackward(n *Network, acts *Activations, pred, label float32, g *Gradients) []float32 {
	delta := []float32{pred - label}
	for i := len(n.layers) - 1; i >= 0; i-- {
		l, in := n.layers[i], acts.values[i]
		for r, d := range delta {
			row := g.w[i].Row(r)
			for j, v := range in {
				row[j] += d * v
			}
			g.b[i][r] += d
		}
		rows, coef := tensor.NonZero(delta, make([]int32, len(delta)), make([]float32, len(delta)))
		prev := make([]float32, l.w.Cols)
		tensor.MatTVecRows(l.w, rows, coef, prev)
		if i > 0 {
			for j, a := range in { // ReLU's derivative: 1 where a > 0, else 0
				if a <= 0 {
					prev[j] = 0
				}
			}
		}
		delta = prev
	}
	return delta
}

// TestBackwardApplyMatchesReference: the training step — Backward per
// example, Apply per mini-batch — is the materialized reference's, because
// Backward's skipping is exact. Over mini-batches of 32 examples, each
// stepped with one Apply, the accumulated gradient and every returned input
// gradient equal the dense computation's bit for bit — on the three benchmark shapes and on the inputs where the
// skipping does the most: an all-zero input (no column of layer 0 visited), a
// layer whose units are all dead (every delta below it zero) and pred == label
// (delta zero from the top).
func TestBackwardApplyMatchesReference(t *testing.T) {
	const batches, batch = 12, 32
	type step struct {
		zeroInput bool
		predIsLbl bool
	}
	normal := func(int) step { return step{} }
	cases := []struct {
		name string
		cfg  Config
		// prepare edits the freshly built network.
		prepare func(n *Network)
		step    func(i int) step
	}{
		{name: "hot", cfg: hotShape, step: normal},
		{name: "tiny", cfg: tinyShape, step: normal},
		{name: "cold", cfg: coldShape, step: normal},
		{name: "zero-input", cfg: tinyShape, step: func(i int) step { return step{zeroInput: i%3 == 1} }},
		{name: "pred-equals-label", cfg: tinyShape, step: func(i int) step { return step{predIsLbl: i%3 == 1} }},
		{name: "dead-layer", cfg: tinyShape, step: normal, prepare: func(n *Network) {
			// Biases this negative keep every unit of the second hidden layer
			// at zero for any input the test feeds.
			for j := range n.layers[1].b {
				n.layers[1].b[j] = -1000
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := New(c.cfg)
			if c.prepare != nil {
				c.prepare(n)
			}
			state := n.NewDenseState(denseOpt)
			acts := n.NewActivations()
			got, want := n.NewGradients(), n.NewGradients()
			rng := rand.New(rand.NewSource(c.cfg.Seed + 100))
			for i := 0; i < batches*batch; i++ {
				st := c.step(i)
				pooledInput(rng, acts.Input())
				if st.zeroInput {
					clear(acts.Input())
				}
				label := float32(rng.Intn(2))
				pred := n.Forward(acts)
				if st.predIsLbl {
					label = pred
				}
				wantIn := materializedBackward(n, acts, pred, label, want)
				gotIn := n.Backward(acts, pred, label, got)
				if j := firstBitDiff(gotIn, wantIn); j >= 0 {
					t.Fatalf("example %d: input gradient differs at %d: %v vs %v", i, j, gotIn[j], wantIn[j])
				}
				if i%batch != batch-1 {
					continue
				}
				if j := firstBitDiff(flatGrads(got), flatGrads(want)); j >= 0 {
					t.Fatalf("batch %d: gradient %d differs: %v vs %v", i/batch, j, flatGrads(got)[j], flatGrads(want)[j])
				}
				n.Apply(denseOpt, state, got)
				got.Zero()
				want.Zero()
			}
			if c.name == "dead-layer" {
				for _, v := range acts.values[2] {
					if v != 0 {
						t.Fatal("the dead layer came alive; the case tests nothing")
					}
				}
			}
		})
	}
}

// TestBackwardApplyAllocatesNothing: a mini-batch — Forward and Backward per
// example, one Apply — allocates nothing on reused buffers.
func TestBackwardApplyAllocatesNothing(t *testing.T) {
	n := New(hotShape)
	acts, g := n.NewActivations(), n.NewGradients()
	state := n.NewDenseState(denseOpt)
	var opt optimizer.Dense = denseOpt // converted once, as the trainer holds it
	rng := rand.New(rand.NewSource(5))
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 8; i++ {
			pooledInput(rng, acts.Input())
			n.Backward(acts, n.Forward(acts), float32(i%2), g)
		}
		n.Apply(opt, state, g)
		g.Zero()
	})
	if allocs != 0 {
		t.Fatalf("a mini-batch step allocates %v times, want 0", allocs)
	}
}

// TestGradientsAdd: the sum of two shards' gradients, stepped once, is the
// step of one accumulator that saw both shards' examples — bit for bit when
// the second shard is empty, and to rounding otherwise (the two sums group
// the examples differently).
func TestGradientsAdd(t *testing.T) {
	n := New(tinyShape)
	acts := n.NewActivations()
	whole, a, b := n.NewGradients(), n.NewGradients(), n.NewGradients()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 64; i++ {
		pooledInput(rng, acts.Input())
		label := float32(rng.Intn(2))
		pred := n.Forward(acts)
		n.Backward(acts, pred, label, whole)
		if i < 32 {
			n.Backward(acts, pred, label, a)
		} else {
			n.Backward(acts, pred, label, b)
		}
	}
	lone := n.NewGradients()
	lone.Add(whole)
	if j := firstBitDiff(flatGrads(lone), flatGrads(whole)); j >= 0 {
		t.Fatalf("adding to a zeroed accumulator changed gradient %d", j)
	}
	a.Add(b)
	sum, want := flatGrads(a), flatGrads(whole)
	moved := 0
	for j := range want {
		if math.Abs(float64(sum[j]-want[j])) > 1e-5*(1+math.Abs(float64(want[j]))) {
			t.Fatalf("gradient %d: shards sum to %v, one accumulator holds %v", j, sum[j], want[j])
		}
		if want[j] != 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no gradient moved; the case tests nothing")
	}
}

// trainedTower trains a fresh tower of cfg's shape on warmUp examples of the
// synthetic click stream the trainer reads (nonZeros features per example out
// of features), in mini-batches of batch examples with one dense step each,
// learning the embeddings beside it: keyed initial values, sum pooling,
// Adagrad on each example's input gradient. It returns the tower, its state,
// and the pooled inputs and labels of the stream's next n examples, read off
// the trained embeddings.
func trainedTower(cfg Config, features int64, nonZeros, warmUp, batch, n int) (*Network, *DenseState, [][]float32, []float32) {
	net := New(cfg)
	state := net.NewDenseState(denseOpt)
	acts, grads := net.NewActivations(), net.NewGradients()
	gen := dataset.NewGenerator(dataset.ForModel(features, nonZeros), cfg.Seed)
	sparseOpt := optimizer.Adagrad{LR: 0.05, InitialAccumulator: 0.1}
	table := map[keys.Key]*embedding.Value{}
	var vecs [][]float32
	pool := func(ex dataset.Example) {
		vecs = vecs[:0]
		for _, k := range ex.Features {
			v := table[k]
			if v == nil {
				v = embedding.NewKeyedValue(cfg.InputDim, cfg.Seed, uint64(k))
				table[k] = v
			}
			vecs = append(vecs, v.Weights)
		}
		PoolSum(acts.Input(), vecs)
	}
	for i := 0; i < warmUp; i++ {
		ex := gen.NextExample()
		pool(ex)
		grad := net.Backward(acts, net.Forward(acts), ex.Label, grads)
		for _, k := range ex.Features {
			sparseOpt.ApplySparse(table[k].Weights, table[k].G2Sum, grad)
		}
		if i%batch == batch-1 {
			net.Apply(denseOpt, state, grads)
			grads.Zero()
		}
	}
	inputs, labels := make([][]float32, n), make([]float32, n)
	for i := range inputs {
		ex := gen.NextExample()
		pool(ex)
		inputs[i], labels[i] = append([]float32(nil), acts.Input()...), ex.Label
	}
	return net, state, inputs, labels
}

// BenchmarkDenseStep times the dense tower's two halves on each benchmark
// shape: "backward" is one example's Forward + Backward, "apply" one
// mini-batch's Apply. Each tower is first trained on warmUp examples outside
// the timer (trainedTower), because which units ReLU zeroes, and so what the
// skipping saves, depends on the weights. Both report what the trained tower
// sees on the timed stream: every layer input's non-zero share (in0 is the
// pooled input) and the share of one example's dense gradient that is
// non-zero.
func BenchmarkDenseStep(b *testing.B) {
	const (
		warmUp = 20000
		batch  = 128
		stream = 512
	)
	for _, shape := range []struct {
		name     string
		cfg      Config
		features int64
		nonZeros int
	}{{"hot", hotShape, 20000, 20}, {"tiny", tinyShape, 20000, 20}, {"cold", coldShape, 60000, 50}} {
		b.Run(shape.name, func(b *testing.B) {
			trained, state, inputs, labels := trainedTower(shape.cfg, shape.features, shape.nonZeros, warmUp, batch, stream)
			metrics := map[string]float64{}
			acts, grads := trained.NewActivations(), trained.NewGradients()
			var nonZero int
			for i := range inputs {
				copy(acts.Input(), inputs[i])
				grads.Zero()
				trained.Backward(acts, trained.Forward(acts), labels[i], grads)
				for l := 0; l < len(trained.layers); l++ {
					metrics[fmt.Sprintf("in%d-nonzero", l)] += float64(len(acts.nz[l])) / float64(len(acts.values[l])) / stream
				}
				for _, v := range flatGrads(grads) {
					if v != 0 {
						nonZero++
					}
				}
			}
			metrics["nonzero-share"] = float64(nonZero) / float64(trained.ParamCount()) / stream
			report := func(b *testing.B) {
				for unit, v := range metrics {
					b.ReportMetric(v, unit)
				}
			}
			b.Run("backward", func(b *testing.B) {
				grads.Zero()
				for i := 0; i < b.N; i++ {
					copy(acts.Input(), inputs[i%stream])
					trained.Backward(acts, trained.Forward(acts), labels[i%stream], grads)
				}
				report(b)
			})
			b.Run("apply", func(b *testing.B) {
				var opt optimizer.Dense = denseOpt // converted once, as the trainer holds it
				for i := 0; i < b.N; i++ {
					trained.Apply(opt, state, grads)
				}
			})
		})
	}
}
