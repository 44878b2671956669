package optimizer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAdagrad(t *testing.T) {
	o := Adagrad{LR: 1.0}
	w := []float32{0}
	state := []float32{0}
	o.ApplySparse(w, state, []float32{2})
	// state = 4, step = 2/(2+eps) ≈ 1
	if math.Abs(float64(state[0]-4)) > 1e-6 {
		t.Fatalf("state = %v", state)
	}
	if math.Abs(float64(w[0]+1)) > 1e-3 {
		t.Fatalf("w = %v", w)
	}
	// Second identical gradient should take a smaller step.
	before := w[0]
	o.ApplySparse(w, state, []float32{2})
	step2 := float64(before - w[0])
	if step2 >= 1.0 {
		t.Fatalf("adagrad second step %v should shrink", step2)
	}
	if o.StateSize(5) != 5 {
		t.Fatal("adagrad state size")
	}
}

func TestAdagradInitialAccumulator(t *testing.T) {
	o := Adagrad{LR: 1.0, InitialAccumulator: 1.0}
	w := []float32{0}
	state := []float32{0}
	o.ApplySparse(w, state, []float32{1})
	// state = 1 (init) + 1 = 2
	if math.Abs(float64(state[0]-2)) > 1e-6 {
		t.Fatalf("state = %v", state)
	}
}

func TestDenseEqualsSparse(t *testing.T) {
	// ApplyDense and ApplySparse must be the same rule.
	for _, o := range []Adagrad{{LR: 0.1}, {LR: 0.1, InitialAccumulator: 0.1}} {
		w1 := []float32{1, -1, 0.5}
		w2 := []float32{1, -1, 0.5}
		s1 := make([]float32, o.StateSize(3))
		s2 := make([]float32, o.StateSize(3))
		g := []float32{0.3, -0.2, 0.1}
		o.ApplySparse(w1, s1, g)
		o.ApplyDense(w2, s2, g)
		for i := range w1 {
			if w1[i] != w2[i] {
				t.Fatalf("%s dense != sparse at %d: %v vs %v", o.Name(), i, w1[i], w2[i])
			}
		}
	}
}

func TestGradientDescentDirectionProperty(t *testing.T) {
	// A positive gradient must never increase the parameter and a negative
	// gradient must never decrease it.
	for _, o := range []Adagrad{{LR: 0.1}, {LR: 0.1, InitialAccumulator: 0.1}} {
		f := func(w0, g float32) bool {
			if math.IsNaN(float64(w0)) || math.IsNaN(float64(g)) ||
				math.IsInf(float64(w0), 0) || math.IsInf(float64(g), 0) {
				return true
			}
			w := []float32{w0}
			state := []float32{0}
			o.ApplySparse(w, state, []float32{g})
			if g > 0 {
				return w[0] <= w0
			}
			if g < 0 {
				return w[0] >= w0
			}
			return w[0] == w0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", o.Name(), err)
		}
	}
}

func TestLengthPanics(t *testing.T) {
	cases := []func(){
		func() { Adagrad{LR: 1}.ApplySparse([]float32{1}, []float32{0}, []float32{1, 2}) },
		func() { Adagrad{LR: 1}.ApplySparse([]float32{1}, []float32{}, []float32{1}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkAdagrad times ApplySparse over a 64x128 block: one dense layer's
// step per mini-batch, half of its gradient zero.
func BenchmarkAdagrad(b *testing.B) {
	o := Adagrad{LR: 0.01, InitialAccumulator: 0.1}
	rng := rand.New(rand.NewSource(1))
	const rows, cols = 64, 128
	w, state, grad := make([]float32, rows*cols), make([]float32, rows*cols), make([]float32, rows*cols)
	for i := range grad {
		if (i/cols)%2 == 0 && (i%cols)%2 == 0 {
			grad[i] = rng.Float32()*2 - 1
		}
	}
	for i := 0; i < b.N; i++ {
		o.ApplySparse(w, state, grad)
	}
}
