// Package optimizer implements Adagrad, the update rule used for both the
// sparse embedding parameters and the dense fully-connected parameters of the
// CTR model.
//
// The rule operates on raw float32 slices so the same implementation serves
// the embedding rows (weights with their Adagrad accumulators) and the dense
// tower's one step per mini-batch.
package optimizer

import (
	"fmt"
	"math"
)

// Sparse updates an embedding vector w given its gradient grad and its
// per-element accumulator state (e.g. the Adagrad G2 sum). Implementations
// must tolerate state being nil for stateless rules.
type Sparse interface {
	// Name returns the human-readable optimizer name.
	Name() string
	// ApplySparse updates w in place. state has the same length as w and is
	// also updated in place when the rule is stateful.
	ApplySparse(w, state, grad []float32)
}

// Dense updates a dense parameter block w given its gradient and an opaque
// state block of StateSize(len(w)) float32s.
type Dense interface {
	// Name returns the human-readable optimizer name.
	Name() string
	// StateSize returns how many float32s of state a parameter block of n
	// elements requires.
	StateSize(n int) int
	// ApplyDense updates w in place using grad and state.
	ApplyDense(w, state, grad []float32)
}

// Adagrad is the per-coordinate adaptive rule used for sparse CTR embeddings:
// state_i += g_i^2 ; w_i -= lr * g_i / (sqrt(state_i) + eps).
type Adagrad struct {
	// LR is the learning rate.
	LR float32
	// Eps avoids division by zero; 1e-6 when zero.
	Eps float32
	// InitialAccumulator is added to the state the first time it is used.
	InitialAccumulator float32
}

// Name implements Sparse and Dense.
func (a Adagrad) Name() string { return "adagrad" }

func (a Adagrad) eps() float32 {
	if a.Eps <= 0 {
		return 1e-6
	}
	return a.Eps
}

// step is the per-element rule. The lazy InitialAccumulator covers state that
// arrives zeroed (a fresh embedding row, a new dense tower's state).
func (a Adagrad) step(w, s, g, eps float32) (float32, float32) {
	if s == 0 && a.InitialAccumulator > 0 {
		s = a.InitialAccumulator
	}
	s += g * g
	return w - a.LR*g/(float32(math.Sqrt(float64(s)))+eps), s
}

// ApplySparse implements Sparse. state must have the same length as w.
func (a Adagrad) ApplySparse(w, state, grad []float32) {
	checkLens("adagrad", w, grad)
	if len(state) != len(w) {
		panic(fmt.Sprintf("optimizer: adagrad state length %d != %d", len(state), len(w)))
	}
	eps := a.eps()
	for i, g := range grad {
		w[i], state[i] = a.step(w[i], state[i], g, eps)
	}
}

// StateSize implements Dense: one accumulator per parameter.
func (a Adagrad) StateSize(n int) int { return n }

// ApplyDense implements Dense.
func (a Adagrad) ApplyDense(w, state, grad []float32) {
	a.ApplySparse(w, state, grad)
}

func checkLens(name string, w, grad []float32) {
	if len(w) != len(grad) {
		panic(fmt.Sprintf("optimizer: %s gradient length %d != parameter length %d", name, len(grad), len(w)))
	}
}
