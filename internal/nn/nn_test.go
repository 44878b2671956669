package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hps/internal/optimizer"
	"hps/internal/tensor"
)

func testNet() *Network {
	return New(Config{InputDim: 4, Hidden: []int{8, 4}, Seed: 1})
}

func TestNewAndParamCount(t *testing.T) {
	n := testNet()
	// 4*8+8 + 8*4+4 + 4*1+1 = 40 + 36 + 5 = 81
	if got := n.ParamCount(); got != 81 {
		t.Fatalf("ParamCount = %d, want 81", got)
	}
	if len(n.layers) != 3 {
		t.Fatalf("NumLayers = %d", len(n.layers))
	}
	if n.FLOPsPerExample() <= 0 {
		t.Fatal("FLOPs must be positive")
	}
	if n.cfg.InputDim != 4 {
		t.Fatal("Config accessor wrong")
	}
}

func TestNewPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{InputDim: 0})
}

func TestForwardRange(t *testing.T) {
	n := testNet()
	acts := n.NewActivations()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		in := acts.Input()
		for j := range in {
			in[j] = rng.Float32()*2 - 1
		}
		p := n.Forward(acts)
		if p <= 0 || p >= 1 || math.IsNaN(float64(p)) {
			t.Fatalf("prediction %v out of (0,1)", p)
		}
	}
}

func TestForwardDeterministic(t *testing.T) {
	n1 := New(Config{InputDim: 4, Hidden: []int{8}, Seed: 7})
	n2 := New(Config{InputDim: 4, Hidden: []int{8}, Seed: 7})
	a1 := n1.NewActivations()
	a2 := n2.NewActivations()
	in := []float32{0.1, -0.2, 0.3, 0.4}
	copy(a1.Input(), in)
	copy(a2.Input(), in)
	if n1.Forward(a1) != n2.Forward(a2) {
		t.Fatal("identical seeds must give identical predictions")
	}
}

// numericalInputGrad estimates dLoss/dInput by central differences.
func numericalInputGrad(n *Network, input []float32, label float32) []float32 {
	const h = 1e-3
	grad := make([]float32, len(input))
	acts := n.NewActivations()
	for i := range input {
		orig := input[i]
		input[i] = orig + h
		copy(acts.Input(), input)
		lp := tensor.LogLoss(n.Forward(acts), label)
		input[i] = orig - h
		copy(acts.Input(), input)
		lm := tensor.LogLoss(n.Forward(acts), label)
		input[i] = orig
		grad[i] = float32((lp - lm) / (2 * h))
	}
	return grad
}

func TestBackwardInputGradientMatchesNumerical(t *testing.T) {
	n := New(Config{InputDim: 5, Hidden: []int{6}, Seed: 3})
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		input := make([]float32, 5)
		for i := range input {
			input[i] = rng.Float32()*2 - 1
		}
		label := float32(trial % 2)
		acts := n.NewActivations()
		copy(acts.Input(), input)
		pred := n.Forward(acts)
		g := n.NewGradients()
		analytic := n.Backward(acts, pred, label, g)
		numeric := numericalInputGrad(n, input, label)
		for i := range analytic {
			diff := math.Abs(float64(analytic[i] - numeric[i]))
			if diff > 2e-2 && diff > 0.05*math.Abs(float64(numeric[i])) {
				t.Fatalf("trial %d dim %d: analytic %v vs numeric %v", trial, i, analytic[i], numeric[i])
			}
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// A small network trained on a fixed synthetic function must reduce loss.
	n := New(Config{InputDim: 4, Hidden: []int{16, 8}, Seed: 5})
	opt := optimizer.Adagrad{LR: 0.1}
	state := n.NewDenseState(opt)
	rng := rand.New(rand.NewSource(6))
	sample := func() ([]float32, float32) {
		in := make([]float32, 4)
		for i := range in {
			in[i] = rng.Float32()*2 - 1
		}
		var label float32
		if in[0]+in[1]-in[2] > 0 {
			label = 1
		}
		return in, label
	}
	lossOver := func(count int) float64 {
		acts := n.NewActivations()
		var sum float64
		r2 := rand.New(rand.NewSource(99))
		for i := 0; i < count; i++ {
			in := make([]float32, 4)
			for j := range in {
				in[j] = r2.Float32()*2 - 1
			}
			var label float32
			if in[0]+in[1]-in[2] > 0 {
				label = 1
			}
			copy(acts.Input(), in)
			sum += tensor.LogLoss(n.Forward(acts), label)
		}
		return sum / float64(count)
	}
	before := lossOver(500)
	acts := n.NewActivations()
	g := n.NewGradients()
	for step := 0; step < 2000; step++ {
		in, label := sample()
		copy(acts.Input(), in)
		pred := n.Forward(acts)
		g.Zero()
		n.Backward(acts, pred, label, g)
		n.Apply(opt, state, g)
	}
	after := lossOver(500)
	if after >= before*0.8 {
		t.Fatalf("training did not reduce loss: before=%v after=%v", before, after)
	}
}

func TestGradientsZero(t *testing.T) {
	n := testNet()
	acts := n.NewActivations()
	for i := range acts.Input() {
		acts.Input()[i] = 0.5
	}
	g := n.NewGradients()
	n.Backward(acts, n.Forward(acts), 1, g)
	nonZero := func() (count int) {
		for i := range g.w {
			for _, v := range g.w[i].Data {
				if v != 0 {
					count++
				}
			}
			for _, v := range g.b[i] {
				if v != 0 {
					count++
				}
			}
		}
		return count
	}
	if nonZero() == 0 {
		t.Fatal("Backward accumulated nothing")
	}
	g.Zero()
	if nonZero() != 0 {
		t.Fatal("Zero should clear gradients")
	}
}

func TestParamsFlattenRoundTrip(t *testing.T) {
	n := testNet()
	flat := n.FlattenParams(nil)
	if int64(len(flat)) != n.ParamCount() {
		t.Fatalf("flat params length %d", len(flat))
	}
	n2 := New(Config{InputDim: 4, Hidden: []int{8, 4}, Seed: 99})
	if err := n2.SetParams(flat); err != nil {
		t.Fatal(err)
	}
	a1 := n.NewActivations()
	a2 := n2.NewActivations()
	in := []float32{1, 2, 3, 4}
	copy(a1.Input(), in)
	copy(a2.Input(), in)
	if n.Forward(a1) != n2.Forward(a2) {
		t.Fatal("SetParams must make networks identical")
	}
	if err := n2.SetParams(flat[:5]); err == nil {
		t.Fatal("short params should error")
	}
	if err := n2.SetParams(append(flat, 1)); err == nil {
		t.Fatal("long params should error")
	}
}

// Clone returns a deep copy of the network: the clean twin the non-finite
// tests poison.
func (n *Network) Clone() *Network {
	out := &Network{cfg: n.cfg}
	for _, l := range n.layers {
		w := &tensor.Matrix{Rows: l.w.Rows, Cols: l.w.Cols, Data: slices.Clone(l.w.Data)}
		nl := layer{w: w, b: slices.Clone(l.b)}
		out.layers = append(out.layers, nl)
	}
	return out
}

func TestClone(t *testing.T) {
	n := testNet()
	c := n.Clone()
	a1 := n.NewActivations()
	a2 := c.NewActivations()
	in := []float32{0.5, -0.5, 1, 0}
	copy(a1.Input(), in)
	copy(a2.Input(), in)
	if n.Forward(a1) != c.Forward(a2) {
		t.Fatal("clone must predict identically")
	}
	// Mutating the clone must not affect the original.
	g := c.NewGradients()
	c.Backward(a2, c.Forward(a2), 1, g)
	c.Apply(optimizer.Adagrad{LR: 1}, c.NewDenseState(optimizer.Adagrad{LR: 1}), g)
	copy(a1.Input(), in)
	copy(a2.Input(), in)
	if n.Forward(a1) == c.Forward(a2) {
		t.Fatal("mutating the clone should change its predictions only")
	}
}

func TestPoolSum(t *testing.T) {
	dst := make([]float32, 3)
	PoolSum(dst, [][]float32{{1, 2, 3}, {1, 1, 1}})
	if dst[0] != 2 || dst[1] != 3 || dst[2] != 4 {
		t.Fatalf("PoolSum = %v", dst)
	}
	// Pooling again must overwrite, not accumulate.
	PoolSum(dst, [][]float32{{1, 0, 0}})
	if dst[0] != 1 || dst[1] != 0 {
		t.Fatalf("PoolSum overwrite = %v", dst)
	}
	// Shorter vectors are tolerated.
	PoolSum(dst, [][]float32{{5}})
	if dst[0] != 5 || dst[1] != 0 {
		t.Fatalf("PoolSum short vec = %v", dst)
	}
}

func TestPoolSumProperty(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		dim := 4
		var vecs [][]float32
		for i := 0; i+dim <= len(vals) && len(vecs) < 16; i += dim {
			vecs = append(vecs, vals[i:i+dim])
		}
		dst := make([]float32, dim)
		PoolSum(dst, vecs)
		for j := 0; j < dim; j++ {
			var want float32
			for _, v := range vecs {
				want += v[j]
			}
			if dst[j] != want && !(dst[j] != dst[j] && want != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestForwardListsNonZeroUnits: after Forward, every layer input's index list
// holds exactly its non-zero units, ascending, and the gathered values are
// theirs — on inputs with zeros in them and through the benchmark shapes.
func TestForwardListsNonZeroUnits(t *testing.T) {
	for _, cfg := range []Config{hotShape, tinyShape, coldShape, {InputDim: 5, Seed: 4}} {
		n := New(cfg)
		acts := n.NewActivations()
		rng := rand.New(rand.NewSource(cfg.Seed))
		for trial := 0; trial < 50; trial++ {
			pooledInput(rng, acts.Input())
			for j := range acts.Input() {
				if rng.Intn(4) == 0 {
					acts.Input()[j] = 0
				}
			}
			n.Forward(acts)
			for i := 0; i < len(n.layers); i++ {
				var want []int32
				for j, v := range acts.values[i] {
					if v != 0 {
						want = append(want, int32(j))
					}
				}
				if len(acts.nz[i]) != len(want) || len(acts.kept[i]) != len(want) {
					t.Fatalf("%+v layer %d: listed %d units (%d values), %d are non-zero", cfg, i, len(acts.nz[i]), len(acts.kept[i]), len(want))
				}
				for k, j := range want {
					if acts.nz[i][k] != j || acts.kept[i][k] != acts.values[i][j] {
						t.Fatalf("%+v layer %d: entry %d lists unit %d = %v, want unit %d = %v", cfg, i, k, acts.nz[i][k], acts.kept[i][k], j, acts.values[i][j])
					}
				}
			}
		}
	}
}

// TestForwardAllocatesNothing pins the serving path: Forward alone on a
// reused Activations makes no allocation, and building an Activations costs
// the same number of allocations however deep the tower is.
func TestForwardAllocatesNothing(t *testing.T) {
	n := New(hotShape)
	acts := n.NewActivations()
	rng := rand.New(rand.NewSource(6))
	if allocs := testing.AllocsPerRun(100, func() {
		pooledInput(rng, acts.Input())
		n.Forward(acts)
	}); allocs != 0 {
		t.Fatalf("Forward allocates %v times per example, want 0", allocs)
	}
	shallow := New(Config{InputDim: 16, Hidden: []int{8}, Seed: 1})
	deepAllocs := testing.AllocsPerRun(20, func() { n.NewActivations() })
	shallowAllocs := testing.AllocsPerRun(20, func() { shallow.NewActivations() })
	if deepAllocs != shallowAllocs {
		t.Fatalf("NewActivations allocates %v times for %d layers, %v for 2", deepAllocs, len(n.layers), shallowAllocs)
	}
}

// TestForwardNonFinite: a NaN in a hidden unit still reaches the prediction,
// while a non-finite weight facing a zero input is never multiplied.
func TestForwardNonFinite(t *testing.T) {
	in := []float32{0.5, 0, -0.25, 1}
	predict := func(n *Network) float32 {
		acts := n.NewActivations()
		copy(acts.Input(), in)
		return n.Forward(acts)
	}
	clean := testNet()
	want := predict(clean)

	poisoned := clean.Clone()
	w := poisoned.layers[0].w
	for r := 0; r < w.Rows; r++ {
		w.Data[r*w.Cols+1] = []float32{float32(math.Inf(1)), float32(math.NaN())}[r%2]
	}
	if got := predict(poisoned); math.Float32bits(got) != math.Float32bits(want) {
		t.Fatalf("non-finite weights on a zero input moved the prediction: %v, want %v", got, want)
	}

	nan := clean.Clone()
	nan.layers[1].b[2] = float32(math.NaN())
	if got := predict(nan); got == got {
		t.Fatalf("a NaN hidden unit gave prediction %v, want NaN", got)
	}
}
