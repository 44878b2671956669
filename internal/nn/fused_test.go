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
)

var fusedOpt = optimizer.Adagrad{LR: 0.01, InitialAccumulator: 0.1}

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

// TestBackwardApplyMatchesReference: the fused step is the reference step,
// bit for bit — parameters, optimizer state and every returned input gradient
// — on the three benchmark shapes and on the inputs where its skipping does
// the most: an all-zero input (no column of layer 0 visited), a layer whose
// units are all dead (every delta below it zero) and pred == label (delta
// zero from the top).
func TestBackwardApplyMatchesReference(t *testing.T) {
	const examples = 400
	type step struct {
		zeroInput bool
		predIsLbl bool
	}
	normal := func(int) step { return step{} }
	cases := []struct {
		name string
		cfg  Config
		// prepare edits the freshly built network before it is cloned.
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
			ref := New(c.cfg)
			if c.prepare != nil {
				c.prepare(ref)
			}
			fused := ref.Clone()
			refState, fusedState := ref.NewDenseState(fusedOpt), fused.NewDenseState(fusedOpt)
			refActs, fusedActs := ref.NewActivations(), fused.NewActivations()
			grads := ref.NewGradients()
			rng := rand.New(rand.NewSource(c.cfg.Seed + 100))
			for i := 0; i < examples; i++ {
				st := c.step(i)
				pooledInput(rng, refActs.Input())
				if st.zeroInput {
					for j := range refActs.Input() {
						refActs.Input()[j] = 0
					}
				}
				copy(fusedActs.Input(), refActs.Input())
				label := float32(rng.Intn(2))

				refPred, fusedPred := ref.Forward(refActs), fused.Forward(fusedActs)
				if math.Float32bits(refPred) != math.Float32bits(fusedPred) {
					t.Fatalf("example %d: predictions differ: %v vs %v", i, refPred, fusedPred)
				}
				if st.predIsLbl {
					label = refPred
				}
				grads.Zero()
				refGrad := ref.Backward(refActs, refPred, label, grads)
				ref.Apply(fusedOpt, refState, grads)
				fusedGrad := fused.BackwardApply(fusedActs, fusedPred, label, fusedOpt, fusedState)

				if j := firstBitDiff(refGrad, fusedGrad); j >= 0 {
					t.Fatalf("example %d: input gradient differs at %d: %v vs %v", i, j, refGrad[j], fusedGrad[j])
				}
				if i%50 == 49 || i == examples-1 {
					rp, fp := ref.FlattenParams(nil), fused.FlattenParams(nil)
					if j := firstBitDiff(rp, fp); j >= 0 {
						t.Fatalf("example %d: parameter %d differs: %v vs %v", i, j, rp[j], fp[j])
					}
					rs, fs := refState.Flatten(nil), fusedState.Flatten(nil)
					if j := firstBitDiff(rs, fs); j >= 0 {
						t.Fatalf("example %d: optimizer state %d differs: %v vs %v", i, j, rs[j], fs[j])
					}
				}
			}
			if c.name == "dead-layer" {
				for _, v := range fusedActs.values[2] {
					if v != 0 {
						t.Fatal("the dead layer came alive; the case tests nothing")
					}
				}
			}
		})
	}
}

func TestBackwardApplyAllocatesNothing(t *testing.T) {
	n := New(hotShape)
	state := n.NewDenseState(fusedOpt)
	acts := n.NewActivations()
	rng := rand.New(rand.NewSource(5))
	allocs := testing.AllocsPerRun(100, func() {
		pooledInput(rng, acts.Input())
		n.BackwardApply(acts, n.Forward(acts), 1, fusedOpt, state)
	})
	if allocs != 0 {
		t.Fatalf("fused step allocates %v times per example, want 0", allocs)
	}
}

// trainReplica clones base, trains the clone on a seeded stream with the
// fused step and returns it with its state.
func trainReplica(base *Network, baseState *DenseState, seed int64, examples int) (*Network, *DenseState) {
	n := base.Clone()
	state := n.NewDenseState(fusedOpt)
	state.CopyFrom(baseState)
	acts := n.NewActivations()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < examples; i++ {
		pooledInput(rng, acts.Input())
		n.BackwardApply(acts, n.Forward(acts), float32(rng.Intn(2)), fusedOpt, state)
	}
	return n, state
}

// TestCommitProperty pins the replica commit, for parameters and optimizer
// state alike: a lone writer's commit leaves exactly its replica; two writers
// that checked out the same base leave base + dA + dB, whichever commits
// first, to within one unit in the last place at the operands' magnitude
// |base|+|A|+|B|, which bounds every intermediate (each order rounds twice
// where the exact sum rounds once).
func TestCommitProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cfg := tinyShape
		cfg.Seed = seed
		// A base with some history, so the state is not uniform.
		base, baseState := trainReplica(New(cfg), New(cfg).NewDenseState(fusedOpt), seed, 64)
		a, aState := trainReplica(base, baseState, seed+100, 32)
		b, bState := trainReplica(base, baseState, seed+200, 32)

		clone := func() (*Network, *DenseState) { return trainReplica(base, baseState, 0, 0) }
		stored, storedState := clone()
		stored.Commit(base, a)
		storedState.Commit(baseState, aState)
		if j := firstBitDiff(stored.FlattenParams(nil), a.FlattenParams(nil)); j >= 0 {
			t.Fatalf("seed %d: lone commit changed parameter %d", seed, j)
		}
		if j := firstBitDiff(storedState.Flatten(nil), aState.Flatten(nil)); j >= 0 {
			t.Fatalf("seed %d: lone commit changed state %d", seed, j)
		}
		stored.Commit(base, b) // A then B
		storedState.Commit(baseState, bState)

		other, otherState := clone()
		other.Commit(base, b) // B then A
		otherState.Commit(baseState, bState)
		other.Commit(base, a)
		otherState.Commit(baseState, aState)

		check := func(what string, base, a, b, ab, ba []float32) {
			t.Helper()
			moved := 0
			for j := range base {
				want := float64(a[j]) + float64(b[j]) - float64(base[j])
				tol := ulp(abs32(base[j]) + abs32(a[j]) + abs32(b[j]))
				for _, got := range []float32{ab[j], ba[j]} {
					if math.Abs(float64(got)-want) > tol {
						t.Fatalf("seed %d: %s %d = %v, want base+dA+dB = %v (tolerance %g)", seed, what, j, got, want, tol)
					}
				}
				if a[j] != base[j] && b[j] != base[j] {
					moved++
				}
			}
			if moved == 0 {
				t.Fatalf("seed %d: no %s moved in both replicas; the case tests nothing", seed, what)
			}
		}
		check("parameter", base.FlattenParams(nil), a.FlattenParams(nil), b.FlattenParams(nil),
			stored.FlattenParams(nil), other.FlattenParams(nil))
		check("state", baseState.Flatten(nil), aState.Flatten(nil), bState.Flatten(nil),
			storedState.Flatten(nil), otherState.Flatten(nil))
	}
}

func abs32(v float32) float32 { return float32(math.Abs(float64(v))) }

// ulp returns the distance from |v| to the next float32 above it.
func ulp(v float32) float64 {
	return float64(math.Nextafter32(v, float32(math.Inf(1)))) - float64(v)
}

// trainedTower trains a fresh tower of cfg's shape with the fused step on
// warmUp examples of the synthetic click stream the trainer reads (nonZeros
// features per example out of features), learning the embeddings beside it
// as the trainer does: keyed initial values, sum pooling, Adagrad on the
// returned input gradient. It returns the tower, its state, and the pooled
// inputs and labels of the stream's next n examples, read off the trained
// embeddings.
func trainedTower(cfg Config, features int64, nonZeros, warmUp, n int) (*Network, *DenseState, [][]float32, []float32) {
	net := New(cfg)
	state := net.NewDenseState(fusedOpt)
	acts := net.NewActivations()
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
		grad := net.BackwardApply(acts, net.Forward(acts), ex.Label, fusedOpt, state)
		for _, k := range ex.Features {
			sparseOpt.ApplySparse(table[k].Weights, table[k].G2Sum, grad)
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

// BenchmarkDenseStep times one training example through the dense tower of
// each benchmark shape, forward pass included: the reference Zero + Backward
// + Apply against the fused BackwardApply. Each tower is first trained on
// warmUp examples outside the timer (trainedTower), because which units ReLU
// zeroes, and so what the skipping saves, depends on the weights. Both runs
// report what the trained tower sees on the timed stream: every layer
// input's non-zero share (in0 is the pooled input) and the share of the
// dense gradient that is non-zero.
func BenchmarkDenseStep(b *testing.B) {
	const (
		warmUp = 20000
		stream = 512
	)
	for _, shape := range []struct {
		name     string
		cfg      Config
		features int64
		nonZeros int
	}{{"hot", hotShape, 20000, 20}, {"tiny", tinyShape, 20000, 20}, {"cold", coldShape, 60000, 50}} {
		b.Run(shape.name, func(b *testing.B) {
			trained, trainedState, inputs, labels := trainedTower(shape.cfg, shape.features, shape.nonZeros, warmUp, stream)
			metrics := map[string]float64{}
			acts, grads := trained.NewActivations(), trained.NewGradients()
			var nonZero int
			for i := range inputs {
				copy(acts.Input(), inputs[i])
				grads.Zero()
				trained.Backward(acts, trained.Forward(acts), labels[i], grads)
				for l := 0; l < trained.NumLayers(); l++ {
					metrics[fmt.Sprintf("in%d-nonzero", l)] += float64(len(acts.nz[l])) / float64(len(acts.values[l])) / stream
					for _, g := range [][]float32{grads.w[l].Data, grads.b[l]} {
						for _, v := range g {
							if v != 0 {
								nonZero++
							}
						}
					}
				}
			}
			metrics["nonzero-share"] = float64(nonZero) / float64(trained.ParamCount()) / stream
			report := func(b *testing.B) {
				for unit, v := range metrics {
					b.ReportMetric(v, unit)
				}
			}
			b.Run("reference", func(b *testing.B) {
				n, state := trainReplica(trained, trainedState, 0, 0)
				acts, grads := n.NewActivations(), n.NewGradients()
				var opt optimizer.Dense = fusedOpt // converted once, as a caller holding the interface would
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(acts.Input(), inputs[i%stream])
					pred := n.Forward(acts)
					grads.Zero()
					n.Backward(acts, pred, labels[i%stream], grads)
					n.Apply(opt, state, grads)
				}
				report(b)
			})
			b.Run("fused", func(b *testing.B) {
				n, state := trainReplica(trained, trainedState, 0, 0)
				acts := n.NewActivations()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(acts.Input(), inputs[i%stream])
					n.BackwardApply(acts, n.Forward(acts), labels[i%stream], fusedOpt, state)
				}
				report(b)
			})
		})
	}
}
