package optimizer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSGD(t *testing.T) {
	o := SGD{LR: 0.1}
	w := []float32{1, 2}
	o.ApplySparse(w, nil, []float32{1, -1})
	if math.Abs(float64(w[0]-0.9)) > 1e-6 || math.Abs(float64(w[1]-2.1)) > 1e-6 {
		t.Fatalf("SGD result = %v", w)
	}
	if o.StateSize(10) != 0 {
		t.Fatal("SGD should be stateless")
	}
	if o.Name() != "sgd" {
		t.Fatal("name")
	}
}

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

func TestMomentum(t *testing.T) {
	o := Momentum{LR: 0.1, Mu: 0.9}
	w := []float32{0}
	state := []float32{0}
	o.ApplySparse(w, state, []float32{1})
	if math.Abs(float64(w[0]+0.1)) > 1e-6 {
		t.Fatalf("first step w = %v", w)
	}
	o.ApplySparse(w, state, []float32{1})
	// velocity = 0.9 + 1 = 1.9, w = -0.1 - 0.19 = -0.29
	if math.Abs(float64(w[0]+0.29)) > 1e-5 {
		t.Fatalf("second step w = %v", w)
	}
	if o.StateSize(3) != 3 {
		t.Fatal("momentum state size")
	}
}

func TestDenseEqualsSparse(t *testing.T) {
	// ApplyDense and ApplySparse must be the same rule for every optimizer.
	opts := []interface {
		Sparse
		Dense
	}{SGD{LR: 0.1}, Adagrad{LR: 0.1}, Momentum{LR: 0.1, Mu: 0.5}}
	for _, o := range opts {
		w1 := []float32{1, -1, 0.5}
		w2 := []float32{1, -1, 0.5}
		s1 := make([]float32, o.StateSize(3))
		s2 := make([]float32, o.StateSize(3))
		g := []float32{0.3, -0.2, 0.1}
		if o.StateSize(3) == 0 {
			s1, s2 = nil, nil
		}
		o.ApplySparse(w1, s1, g)
		o.ApplyDense(w2, s2, g)
		for i := range w1 {
			if w1[i] != w2[i] {
				t.Fatalf("%s dense != sparse at %d: %v vs %v", o.Name(), i, w1[i], w2[i])
			}
		}
	}
}

// TestAdagradRank1MatchesMaterialized: ApplyOuter over the non-zero factors
// of (u, v) leaves exactly what ApplySparse leaves over the materialized
// gradient u ⊗ v — with full lists (the direct loop), with zero rows and zero
// columns left out, and from zeroed state, where a coordinate it skips keeps
// the zero ApplySparse would have replaced (the one place the two may differ,
// by design: the accumulator is then initialized at the coordinate's first
// non-zero gradient).
func TestAdagradRank1MatchesMaterialized(t *testing.T) {
	o := Adagrad{LR: 0.05, InitialAccumulator: 0.1}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 80; trial++ {
		rows, cols := 1+rng.Intn(9), 1+rng.Intn(13)
		sparse := trial%2 == 1
		u, v := make([]float32, rows), make([]float32, cols)
		var rIdx, cIdx []int32
		var uNZ, vNZ []float32
		for r := range u {
			if !sparse || rng.Intn(2) == 0 {
				u[r] = rng.Float32()*2 - 1
				rIdx, uNZ = append(rIdx, int32(r)), append(uNZ, u[r])
			}
		}
		for j := range v {
			if !sparse || rng.Intn(2) == 0 {
				v[j] = rng.Float32()*2 - 1
				cIdx, vNZ = append(cIdx, int32(j)), append(vNZ, v[j])
			}
		}
		w1, s1 := make([]float32, rows*cols), make([]float32, rows*cols)
		for i := range w1 {
			w1[i] = rng.Float32()*2 - 1
			if trial%4 < 2 {
				s1[i] = o.InitialAccumulator + rng.Float32()
			}
		}
		w2, s2 := append([]float32(nil), w1...), append([]float32(nil), s1...)
		grad := make([]float32, rows*cols)
		for r := range u {
			for j := range v {
				grad[r*cols+j] = u[r] * v[j]
			}
		}
		for step := 0; step < 3; step++ {
			o.ApplySparse(w1, s1, grad)
			o.ApplyOuter(w2, s2, cols, rIdx, uNZ, cIdx, vNZ)
		}
		for i := range w1 {
			if grad[i] == 0 && s2[i] == 0 {
				s2[i] = o.InitialAccumulator // skipped from zeroed state
			}
			if math.Float32bits(w1[i]) != math.Float32bits(w2[i]) || math.Float32bits(s1[i]) != math.Float32bits(s2[i]) {
				t.Fatalf("trial %d element %d: materialized (%v, %v) vs rank-1 (%v, %v)", trial, i, w1[i], s1[i], w2[i], s2[i])
			}
		}
	}
}

// TestAdagradOuterSkipsUnlisted: a coordinate outside the lists is not read,
// so an Inf or NaN parameter or state there stays exactly as it was and
// poisons nothing else.
func TestAdagradOuterSkipsUnlisted(t *testing.T) {
	o := Adagrad{LR: 0.05, InitialAccumulator: 0.1}
	const rows, cols = 3, 5
	w, state := make([]float32, rows*cols), make([]float32, rows*cols)
	for i := range w {
		w[i], state[i] = 0.5, 1
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	w[0*cols+1], state[1*cols+0] = nan, inf // (0, 1): unlisted column; (1, 0): unlisted row
	o.ApplyOuter(w, state, cols, []int32{0, 2}, []float32{1, -1}, []int32{0, 2, 4}, []float32{1, 1, 1})
	for r := 0; r < rows; r++ {
		for j := 0; j < cols; j++ {
			i := r*cols + j
			listed := r != 1 && j%2 == 0
			switch {
			case i == 0*cols+1:
				if w[i] == w[i] || state[i] != 1 {
					t.Fatalf("unlisted NaN parameter became (%v, %v)", w[i], state[i])
				}
			case i == 1*cols+0:
				if w[i] != 0.5 || !math.IsInf(float64(state[i]), 1) {
					t.Fatalf("unlisted Inf state became (%v, %v)", w[i], state[i])
				}
			case listed:
				if w[i] == 0.5 || math.IsInf(float64(w[i]), 0) || w[i] != w[i] || state[i] != 2 {
					t.Fatalf("listed (%d, %d) = (%v, %v), want a finite step and state 2", r, j, w[i], state[i])
				}
			default:
				if w[i] != 0.5 || state[i] != 1 {
					t.Fatalf("unlisted (%d, %d) moved to (%v, %v)", r, j, w[i], state[i])
				}
			}
		}
	}
}

func TestGradientDescentDirectionProperty(t *testing.T) {
	// For every optimizer, a positive gradient must never increase the
	// parameter and a negative gradient must never decrease it.
	opts := []Sparse{SGD{LR: 0.1}, Adagrad{LR: 0.1}, Momentum{LR: 0.1, Mu: 0.9}}
	for _, o := range opts {
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
		func() { SGD{LR: 1}.ApplySparse([]float32{1}, nil, []float32{1, 2}) },
		func() { Adagrad{LR: 1}.ApplySparse([]float32{1}, []float32{}, []float32{1}) },
		func() { Momentum{LR: 1}.ApplySparse([]float32{1, 2}, []float32{0}, []float32{1, 2}) },
		func() { Adagrad{LR: 1}.ApplyOuter(make([]float32, 5), make([]float32, 5), 3, nil, nil, nil, nil) },
		func() { Adagrad{LR: 1}.ApplyOuter(make([]float32, 6), make([]float32, 5), 3, nil, nil, nil, nil) },
		func() { Adagrad{LR: 1}.ApplyOuter(make([]float32, 6), make([]float32, 6), 0, nil, nil, nil, nil) },
		func() {
			Adagrad{LR: 1}.ApplyOuter(make([]float32, 6), make([]float32, 6), 3, []int32{0}, nil, nil, nil)
		},
		func() {
			Adagrad{LR: 1}.ApplyOuter(make([]float32, 6), make([]float32, 6), 3, nil, nil, []int32{0}, []float32{1, 2})
		},
		func() {
			Adagrad{LR: 1}.ApplyOuter(make([]float32, 6), make([]float32, 6), 3, []int32{2}, []float32{1}, []int32{0}, []float32{1})
		},
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

func TestDefaults(t *testing.T) {
	if DefaultSparse() == nil || DefaultDense() == nil {
		t.Fatal("defaults must not be nil")
	}
	if DefaultSparse().Name() != "adagrad" {
		t.Fatal("default sparse should be adagrad (CTR convention)")
	}
}

// BenchmarkAdagrad times the two ways a coordinate reaches the shared element
// rule: ApplySparse over a whole block (an embedding row, or the reference
// dense step's materialized gradient) and ApplyOuter over a 64x128 layer with
// half of delta's rows and half of the input's columns zeroed by ReLU.
func BenchmarkAdagrad(b *testing.B) {
	o := Adagrad{LR: 0.01, InitialAccumulator: 0.1}
	rng := rand.New(rand.NewSource(1))
	const rows, cols = 64, 128
	u, v := make([]float32, rows), make([]float32, cols)
	var rIdx, cIdx []int32
	var uNZ, vNZ []float32
	for r := range u {
		if r%2 == 0 {
			u[r] = rng.Float32()*2 - 1
			rIdx, uNZ = append(rIdx, int32(r)), append(uNZ, u[r])
		}
	}
	for j := range v {
		if j%2 == 0 {
			v[j] = rng.Float32()*2 - 1
			cIdx, vNZ = append(cIdx, int32(j)), append(vNZ, v[j])
		}
	}
	w, state, grad := make([]float32, rows*cols), make([]float32, rows*cols), make([]float32, rows*cols)
	for i := range grad {
		grad[i] = u[i/cols] * v[i%cols]
	}
	b.Run("sparse-block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o.ApplySparse(w, state, grad)
		}
	})
	b.Run("rank1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o.ApplyOuter(w, state, cols, rIdx, uNZ, cIdx, vNZ)
		}
	})
}
