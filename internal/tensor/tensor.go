// Package tensor implements the minimal dense float32 linear algebra used by
// the CTR prediction network: matrices, the fully-connected layers' forward
// and backward kernels, element-wise activation functions, and the slab
// kernels the parameter-server tiers share.
//
// Only the operations the fully-connected layers need are provided; the goal
// is a dependency-free, predictable substrate rather than a general BLAS.
//
// The layer kernels read only what a list names. ReLU zeroes about half of a
// hidden layer's units, so a forward product takes the non-zero columns of
// its input (MatVecCols), and the backward kernels the non-zero rows of the
// layer's output gradient (MatTVecRows, MatTVecRowsColsAccum,
// OuterAccumRowsCols). A list holds distinct indices in ascending order;
// NonZero and BiasReLU build them.
//
// Summation order. MatVecCols sums each row's terms in list order, from zero,
// one accumulator per row. The transposed products add the listed rows into
// each output column four at a time, out[j] += x0·M[r0][j] + x1·M[r1][j] +
// x2·M[r2][j] + x3·M[r3][j] left to right, then the last len(rows)%4 one at a
// time, out[j] += x·M[r][j]; a column's sum depends on the row list only, so
// every kernel that computes that column computes it bit for bit alike. A
// weight-gradient kernel adds each product x[k]·v[o] to its element once, so
// it is bit-identical to the scalar loop, as are the element-wise kernels
// (Add, SubAnyNonZero).
//
// Non-finite values. A kernel never multiplies what it skips: a row or
// column left out of a list contributes nothing even when it holds an Inf or
// a NaN. What a kernel reads follows IEEE arithmetic, so a NaN in a listed
// unit reaches every output it feeds.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zero matrix with the given shape. It panics if either
// dimension is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns a view of row i (no copy).
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// FillRandom initializes the matrix with Xavier/Glorot uniform values using
// the provided random source, suitable for fully-connected layer weights.
func (m *Matrix) FillRandom(rng *rand.Rand) {
	if m.Rows == 0 || m.Cols == 0 {
		return
	}
	limit := float32(math.Sqrt(6.0 / float64(m.Rows+m.Cols)))
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * limit
	}
}

// MatVecCols computes out = M[:, cols]·x, the product of M's listed columns
// with x: out[r] = Σ_k M[r][cols[k]]·x[k] for every row r, where x holds the
// listed columns' values, gathered (len(x) == len(cols)). Each row sums its
// terms in list order from zero. Rows are computed four at a time, so each
// gathered x[k] is loaded once per four rows. It panics on shape mismatch.
func MatVecCols(m *Matrix, cols []int32, x, out []float32) {
	if len(x) != len(cols) || len(out) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVecCols shape mismatch m=%dx%d cols=%d x=%d out=%d", m.Rows, m.Cols, len(cols), len(x), len(out)))
	}
	r := 0
	for ; r+3 < m.Rows; r += 4 {
		w0 := m.Row(r)
		// Cut to w0's length, so that w0's bounds check covers all four.
		w1, w2, w3 := m.Row(r + 1)[:len(w0)], m.Row(r + 2)[:len(w0)], m.Row(r + 3)[:len(w0)]
		var s0, s1, s2, s3 float32
		for k, c := range cols {
			v := x[k]
			s0 += w0[c] * v
			s1 += w1[c] * v
			s2 += w2[c] * v
			s3 += w3[c] * v
		}
		o := out[r : r+4 : r+4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	for ; r < m.Rows; r++ {
		w := m.Row(r)
		var s float32
		for k, c := range cols {
			s += w[c] * x[k]
		}
		out[r] = s
	}
}

// MatTVecRows computes out = M[rows, :]ᵀ·x, the transposed product of M's
// listed rows with x: out[j] = Σ_k x[k]·M[rows[k]][j] for every column j,
// where x holds the listed rows' coefficients (len(x) == len(rows)). Rows are
// taken four at a time, so out is read and written once per block (the axpy
// form is store-bound on out), and the last len(rows)%4 one at a time. It
// panics on shape mismatch.
func MatTVecRows(m *Matrix, rows []int32, x, out []float32) {
	if len(x) != len(rows) || len(out) != m.Cols {
		panic(fmt.Sprintf("tensor: MatTVecRows shape mismatch m=%dx%d rows=%d x=%d out=%d", m.Rows, m.Cols, len(rows), len(x), len(out)))
	}
	clear(out)
	n := len(out)
	k := 0
	for ; k+3 < len(rows); k += 4 {
		x4, r4 := x[k:k+4:k+4], rows[k:k+4:k+4]
		x0, x1, x2, x3 := x4[0], x4[1], x4[2], x4[3]
		r0, r1, r2, r3 := m.Row(int(r4[0]))[:n], m.Row(int(r4[1]))[:n], m.Row(int(r4[2]))[:n], m.Row(int(r4[3]))[:n]
		for j := range out {
			out[j] += x0*r0[j] + x1*r1[j] + x2*r2[j] + x3*r3[j]
		}
	}
	for ; k < len(rows); k++ {
		xk, r := x[k], m.Row(int(rows[k]))[:n]
		for j := range out {
			out[j] += xk * r[j]
		}
	}
}

// MatTVecRowsColsAccum is a hidden layer's backward pass in one sweep over
// the listed rows of M. It computes the transposed product on the listed
// columns only, out[o] = Σ_k x[k]·M[rows[k]][cols[o]] with len(out) ==
// len(cols), in MatTVecRows' grouping, so each output is bit for bit the one
// MatTVecRows writes for that column. Beside it, it adds the layer's weight
// gradient x ⊗ v into gw on the listed rows and columns, gw[rows[k]][cols[o]]
// += x[k]·v[o], and x into gb: one add per element, as OuterAccumRowsCols
// makes. Each column index and gathered v[o] is loaded once per four rows.
// It panics on shape mismatch.
func MatTVecRowsColsAccum(m *Matrix, rows []int32, x []float32, cols []int32, v, out []float32, gw *Matrix, gb []float32) {
	if len(x) != len(rows) || len(v) != len(cols) || len(out) != len(cols) || len(cols) > m.Cols ||
		gw.Rows != m.Rows || gw.Cols != m.Cols || len(gb) != m.Rows {
		panic(fmt.Sprintf("tensor: MatTVecRowsColsAccum shape mismatch m=%dx%d rows=%d x=%d cols=%d v=%d out=%d gw=%dx%d gb=%d",
			m.Rows, m.Cols, len(rows), len(x), len(cols), len(v), len(out), gw.Rows, gw.Cols, len(gb)))
	}
	clear(out)
	for k, r := range rows {
		gb[r] += x[k]
	}
	k := 0
	for ; k+3 < len(rows); k += 4 {
		x4, r4 := x[k:k+4:k+4], rows[k:k+4:k+4]
		x0, x1, x2, x3 := x4[0], x4[1], x4[2], x4[3]
		r0 := m.Row(int(r4[0]))
		r1, r2, r3 := m.Row(int(r4[1]))[:len(r0)], m.Row(int(r4[2]))[:len(r0)], m.Row(int(r4[3]))[:len(r0)]
		g0, g1, g2, g3 := gw.Row(int(r4[0]))[:len(r0)], gw.Row(int(r4[1]))[:len(r0)], gw.Row(int(r4[2]))[:len(r0)], gw.Row(int(r4[3]))[:len(r0)]
		for o, c := range cols {
			u := v[o]
			out[o] += x0*r0[c] + x1*r1[c] + x2*r2[c] + x3*r3[c]
			g0[c] += x0 * u
			g1[c] += x1 * u
			g2[c] += x2 * u
			g3[c] += x3 * u
		}
	}
	for ; k < len(rows); k++ {
		xk, r, g := x[k], m.Row(int(rows[k])), gw.Row(int(rows[k]))
		for o, c := range cols {
			out[o] += xk * r[c]
			g[c] += xk * v[o]
		}
	}
}

// OuterAccumRowsCols adds the weight gradient x ⊗ v into gw on the listed
// rows and columns, gw[rows[k]][cols[o]] += x[k]·v[o], and x into gb: the
// input layer's half of MatTVecRowsColsAccum, whose transposed product
// MatTVecRows computes on every column. Rows go four at a time, so each
// column index and gathered v[o] is loaded once per four rows. It panics on
// shape mismatch.
func OuterAccumRowsCols(gw *Matrix, gb []float32, rows []int32, x []float32, cols []int32, v []float32) {
	if len(x) != len(rows) || len(v) != len(cols) || len(cols) > gw.Cols || len(gb) != gw.Rows {
		panic(fmt.Sprintf("tensor: OuterAccumRowsCols shape mismatch gw=%dx%d gb=%d rows=%d x=%d cols=%d v=%d", gw.Rows, gw.Cols, len(gb), len(rows), len(x), len(cols), len(v)))
	}
	for k, r := range rows {
		gb[r] += x[k]
	}
	k := 0
	for ; k+3 < len(rows); k += 4 {
		x4, r4 := x[k:k+4:k+4], rows[k:k+4:k+4]
		x0, x1, x2, x3 := x4[0], x4[1], x4[2], x4[3]
		g0 := gw.Row(int(r4[0]))
		g1, g2, g3 := gw.Row(int(r4[1]))[:len(g0)], gw.Row(int(r4[2]))[:len(g0)], gw.Row(int(r4[3]))[:len(g0)]
		for o, c := range cols {
			u := v[o]
			g0[c] += x0 * u
			g1[c] += x1 * u
			g2[c] += x2 * u
			g3[c] += x3 * u
		}
	}
	for ; k < len(rows); k++ {
		xk, g := x[k], gw.Row(int(rows[k]))
		for o, c := range cols {
			g[c] += xk * v[o]
		}
	}
}

// Add computes y += x element-wise, unrolled eight wide: the kernel is
// store-bound, so the wider body pays. It panics on length mismatch.
func Add(x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Add length mismatch %d != %d", len(x), len(y)))
	}
	i := 0
	for n := len(x) - 7; i < n; i += 8 {
		x8 := x[i : i+8 : i+8]
		y8 := y[i : i+8 : i+8]
		y8[0] += x8[0]
		y8[1] += x8[1]
		y8[2] += x8[2]
		y8[3] += x8[3]
		y8[4] += x8[4]
		y8[5] += x8[5]
		y8[6] += x8[6]
		y8[7] += x8[7]
	}
	for ; i < len(x); i++ {
		y[i] += x[i]
	}
}

// SubAnyNonZero computes dst = a - b element-wise and reports whether any
// element of the difference is non-zero — the fused subtract-and-test of the
// delta-collection path (computing the difference and scanning it separately
// would stream the slab twice). It panics on length mismatch.
func SubAnyNonZero(dst, a, b []float32) bool {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(fmt.Sprintf("tensor: SubAnyNonZero length mismatch dst=%d a=%d b=%d", len(dst), len(a), len(b)))
	}
	changed := false
	i := 0
	for n := len(a) - 3; i < n; i += 4 {
		a4 := a[i : i+4 : i+4]
		b4 := b[i : i+4 : i+4]
		d4 := dst[i : i+4 : i+4]
		d0 := a4[0] - b4[0]
		d1 := a4[1] - b4[1]
		d2 := a4[2] - b4[2]
		d3 := a4[3] - b4[3]
		d4[0], d4[1], d4[2], d4[3] = d0, d1, d2, d3
		if d0 != 0 || d1 != 0 || d2 != 0 || d3 != 0 {
			changed = true
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		dst[i] = d
		if d != 0 {
			changed = true
		}
	}
	return changed
}

// Sigmoid returns 1 / (1 + exp(-x)) computed in a numerically stable way.
func Sigmoid(x float32) float32 {
	if x >= 0 {
		z := float32(math.Exp(-float64(x)))
		return 1 / (1 + z)
	}
	z := float32(math.Exp(float64(x)))
	return z / (1 + z)
}

// NonZero lists the non-zero elements of x, ascending: it writes the index
// of each to idx and its value to vals, which need room for len(x), and
// returns both cut to the count. A NaN is non-zero.
func NonZero(x []float32, idx []int32, vals []float32) ([]int32, []float32) {
	idx, vals = idx[:len(x)], vals[:len(x)]
	n := 0
	for j, v := range x {
		idx[n], vals[n] = int32(j), v
		if v != 0 {
			n++
		}
	}
	return idx[:n], vals[:n]
}

// BiasReLU adds the bias b to x and applies the rectifier max(0, ·) in
// place, then lists what it kept the way NonZero does: the positive units,
// and any NaN, which the rectifier passes through. It panics on length
// mismatch.
func BiasReLU(x, b []float32, idx []int32, vals []float32) ([]int32, []float32) {
	if len(b) != len(x) {
		panic(fmt.Sprintf("tensor: BiasReLU length mismatch %d != %d", len(x), len(b)))
	}
	b, idx, vals = b[:len(x)], idx[:len(x)], vals[:len(x)]
	n := 0
	for j, v := range x {
		v = max(v+b[j], 0) // NaN if v+b[j] is NaN
		x[j] = v
		idx[n], vals[n] = int32(j), v
		if v != 0 {
			n++
		}
	}
	return idx[:n], vals[:n]
}

// LogLoss returns the binary cross-entropy loss for prediction p in (0,1) and
// label y in {0,1}, clamping p away from 0 and 1 for numerical stability.
func LogLoss(p float32, y float32) float64 {
	const eps = 1e-7
	pp := float64(p)
	if pp < eps {
		pp = eps
	}
	if pp > 1-eps {
		pp = 1 - eps
	}
	if y > 0.5 {
		return -math.Log(pp)
	}
	return -math.Log(1 - pp)
}
