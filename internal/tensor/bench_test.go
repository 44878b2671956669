package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Two shape regimes: 64x64 panels stay L1-resident, which is the regime the
// CTR dense tower (a few dozen units per layer) actually runs in, so kernel
// overhead dominates; 256x256 streams through L2, so the kernels are
// bandwidth-bound and the unroll matters less.
var matShapes = []int{64, 256}

func benchMatrix(rows, cols int) *Matrix {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(rows, cols)
	m.FillRandom(rng)
	return m
}

func benchVector(n int) []float32 {
	rng := rand.New(rand.NewSource(2))
	out := make([]float32, n)
	for i := range out {
		out[i] = rng.Float32()*2 - 1
	}
	return out
}

// halfList lists every other index of x, as ReLU leaves about half of a
// hidden layer's units, and gathers x's values there.
func halfList(x []float32) ([]int32, []float32) {
	var idx []int32
	var vals []float32
	for j := 0; j < len(x); j += 2 {
		idx, vals = append(idx, int32(j)), append(vals, x[j])
	}
	return idx, vals
}

// BenchmarkMatVec times the forward product, MatVecCols, over an input half
// of whose columns are listed. Bytes count the whole matrix, as the dense
// product it replaces read it.
func BenchmarkMatVec(b *testing.B) {
	for _, n := range matShapes {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			m := benchMatrix(n, n)
			cols, x := halfList(benchVector(n))
			out := make([]float32, n)
			b.SetBytes(int64(4 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatVecCols(m, cols, x, out)
			}
		})
	}
}

// BenchmarkMatTVec times the backward kernels with half of the rows listed:
// MatTVecRowsColsAccum on half of the columns (a hidden layer's product and
// weight gradient in one pass), and MatTVecRows on every column (the pooled
// input's, "every-column"). Bytes count the whole matrix, as the dense
// product they replace read it.
func BenchmarkMatTVec(b *testing.B) {
	for _, n := range matShapes {
		m := benchMatrix(n, n)
		rows, x := halfList(benchVector(n))
		cols, v := halfList(benchVector(n))
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			out, gw, gb := make([]float32, len(cols)), NewMatrix(n, n), make([]float32, n)
			b.SetBytes(int64(4 * n * n))
			for i := 0; i < b.N; i++ {
				MatTVecRowsColsAccum(m, rows, x, cols, v, out, gw, gb)
			}
		})
		b.Run(fmt.Sprintf("%dx%d-every-column", n, n), func(b *testing.B) {
			out := make([]float32, n)
			b.SetBytes(int64(4 * n * n))
			for i := 0; i < b.N; i++ {
				MatTVecRows(m, rows, x, out)
			}
		})
	}
}
