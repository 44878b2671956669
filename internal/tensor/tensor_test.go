package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// NewMatrixFrom wraps data as a rows x cols matrix: how the kernel tests
// state their operands, row-major.
func NewMatrixFrom(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatal("NewMatrix shape wrong")
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At mismatch")
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7 {
		t.Fatal("Row view wrong")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone must not share storage")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestNewMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative shape")
		}
	}()
	NewMatrix(-1, 2)
}

func TestNewMatrixFrom(t *testing.T) {
	m := NewMatrixFrom(2, 2, []float32{1, 2, 3, 4})
	if m.At(1, 0) != 3 {
		t.Fatal("NewMatrixFrom layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewMatrixFrom(2, 2, []float32{1})
}

func TestMatVec(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float32{1, 2, 3, 4, 5, 6})
	// x = {1, 0, -1}: column 1 is not listed.
	out := make([]float32, 2)
	MatVecCols(m, []int32{0, 2}, []float32{1, -1}, out)
	if out[0] != -2 || out[1] != -2 {
		t.Fatalf("MatVecCols = %v", out)
	}
}

func TestMatTVec(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float32{1, 2, 3, 4, 5, 6})
	rows, x := []int32{0, 1}, []float32{1, 1}
	out := make([]float32, 3)
	MatTVecRows(m, rows, x, out)
	if out[0] != 5 || out[1] != 7 || out[2] != 9 {
		t.Fatalf("MatTVecRows = %v", out)
	}
	some, gw, gb := make([]float32, 2), NewMatrix(2, 3), make([]float32, 2)
	MatTVecRowsColsAccum(m, rows, x, []int32{0, 2}, []float32{3, -1}, some, gw, gb)
	if some[0] != 5 || some[1] != 9 {
		t.Fatalf("MatTVecRowsColsAccum = %v", some)
	}
	if want := []float32{3, 0, -1, 3, 0, -1}; sameBits(gw.Data, want) >= 0 || gb[0] != 1 || gb[1] != 1 {
		t.Fatalf("MatTVecRowsColsAccum gradients = %v %v, want %v [1 1]", gw.Data, gb, want)
	}
	// Only row 1 listed.
	MatTVecRows(m, []int32{1}, []float32{2}, out)
	if out[0] != 8 || out[1] != 10 || out[2] != 12 {
		t.Fatalf("MatTVecRows one row = %v", out)
	}
}

// randomList lists each index below n with probability p, ascending, and
// draws a value in [-1, 1) for each.
func randomList(rng *rand.Rand, n int, p float64) ([]int32, []float32) {
	idx, vals := []int32{}, []float32{}
	for j := 0; j < n; j++ {
		if rng.Float64() < p {
			idx, vals = append(idx, int32(j)), append(vals, rng.Float32()*2-1)
		}
	}
	return idx, vals
}

func TestMatVecMatTVecAdjointProperty(t *testing.T) {
	// <M[:, C]·x, y> == <x, M[R, C]ᵀ·y> when y is zero off the rows R — checks
	// the forward and transposed products agree.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(9) + 1
		cols := rng.Intn(9) + 1
		m := NewMatrix(rows, cols)
		m.FillRandom(rng)
		cIdx, x := randomList(rng, cols, 0.6)
		rIdx, y := randomList(rng, rows, 0.6)
		mx := make([]float32, rows)
		MatVecCols(m, cIdx, x, mx)
		var lhs float64
		for k, r := range rIdx {
			lhs += float64(mx[r]) * float64(y[k])
		}
		mty := make([]float32, len(cIdx))
		MatTVecRowsColsAccum(m, rIdx, y, cIdx, x, mty, NewMatrix(rows, cols), make([]float32, rows))
		var rhs float64
		for i := range x {
			rhs += float64(x[i]) * float64(mty[i])
		}
		return almostEqual(lhs, rhs, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestOuterAccumRowsCols adds x ⊗ v on the listed rows and columns, with
// five rows so that the four-row block and the remainder both run.
func TestOuterAccumRowsCols(t *testing.T) {
	gw, gb := NewMatrix(6, 3), make([]float32, 6)
	rows, x := []int32{0, 1, 2, 4, 5}, []float32{1, 2, 3, 4, 5}
	OuterAccumRowsCols(gw, gb, rows, x, []int32{0, 2}, []float32{3, 4})
	want := []float32{3, 0, 4, 6, 0, 8, 9, 0, 12, 0, 0, 0, 12, 0, 16, 15, 0, 20}
	if sameBits(gw.Data, want) >= 0 || sameBits(gb, []float32{1, 2, 3, 0, 4, 5}) >= 0 {
		t.Fatalf("OuterAccumRowsCols = %v %v, want %v [1 2 3 0 4 5]", gw.Data, gb, want)
	}
	// Accumulates, not overwrites.
	OuterAccumRowsCols(gw, gb, []int32{3}, []float32{1}, []int32{1}, []float32{1})
	if gw.At(3, 1) != 1 || gw.At(0, 0) != 3 || gb[3] != 1 || gb[0] != 1 {
		t.Fatalf("OuterAccumRowsCols accumulate = %v %v", gw.Data, gb)
	}
}

// TestMatTVecSkipsZeroCoefficientRows pins the zero-skip contract at every
// row position: a row whose coefficient is zero is left out of the list
// NonZero builds, and must not contribute even when it holds non-finite
// values (0 * Inf would otherwise poison the output), whether its neighbours
// land in the 4-row blocked body or the remainder.
func TestMatTVecSkipsZeroCoefficientRows(t *testing.T) {
	const rows, cols = 6, 3
	for bad := 0; bad < rows; bad++ {
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, float32(i+1))
			}
		}
		m.Set(bad, 0, float32(math.Inf(1)))
		m.Set(bad, 1, float32(math.NaN()))
		x := make([]float32, rows)
		want := float32(0)
		for i := range x {
			if i == bad {
				continue // the poisoned row gets coefficient 0
			}
			x[i] = 1
			want += float32(i + 1)
		}
		rIdx, coef := NonZero(x, make([]int32, rows), make([]float32, rows))
		out := make([]float32, cols)
		MatTVecRows(m, rIdx, coef, out)
		some := make([]float32, 2)
		MatTVecRowsColsAccum(m, rIdx, coef, []int32{0, 1}, []float32{1, 1}, some, NewMatrix(rows, cols), make([]float32, rows))
		for j, v := range append(out, some...) {
			if v != want {
				t.Fatalf("bad row %d: out[%d] = %v, want %v", bad, j, v, want)
			}
		}
	}
}

func TestAdd(t *testing.T) {
	x := []float32{1, 2, 3, 4, 5}
	y := []float32{10, 20, 30, 40, 50}
	Add(x, y)
	want := []float32{11, 22, 33, 44, 55}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Add = %v, want %v", y, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected length panic")
		}
	}()
	Add(make([]float32, 2), make([]float32, 3))
}

func TestSubAnyNonZero(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5, 6}
	b := []float32{1, 2, 3, 4, 5, 6}
	dst := make([]float32, 6)
	if SubAnyNonZero(dst, a, b) {
		t.Fatal("identical inputs reported a change")
	}
	for _, v := range dst {
		if v != 0 {
			t.Fatalf("difference of identical inputs = %v", dst)
		}
	}
	// A change in any lane — unrolled body and remainder alike — is detected.
	for i := range a {
		b2 := append([]float32(nil), b...)
		b2[i] += 0.5
		if !SubAnyNonZero(dst, a, b2) {
			t.Fatalf("change at element %d not detected", i)
		}
		if dst[i] != -0.5 {
			t.Fatalf("dst[%d] = %v, want -0.5", i, dst[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected length panic")
		}
	}()
	SubAnyNonZero(make([]float32, 2), make([]float32, 2), make([]float32, 3))
}

// TestUnrolledKernelsMatchScalar pins the unrolled element-wise kernel to a
// naive scalar reference, bit for bit, at every remainder length (n%4 in
// 0..3). (The layer products have their own contract,
// TestDenseKernelsMatchScalarLoops, bit for bit.)
func TestUnrolledKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 33} {
		x := make([]float32, n)
		y := make([]float32, n)
		for i := range x {
			x[i] = rng.Float32()*2 - 1
			y[i] = rng.Float32()*2 - 1
		}
		yAdd := append([]float32(nil), y...)
		Add(x, yAdd)
		for i := range y {
			if yAdd[i] != y[i]+x[i] {
				t.Fatalf("n=%d: Add[%d] = %v, want %v", n, i, yAdd[i], y[i]+x[i])
			}
		}
	}
}

func TestShapePanics(t *testing.T) {
	m, gw, gb := NewMatrix(2, 3), NewMatrix(2, 3), make([]float32, 2)
	// accum calls MatTVecRowsColsAccum with x, v and out of the given lengths.
	accum := func(m *Matrix, rows []int32, nx int, cols []int32, nv, nout int, gw *Matrix, gb []float32) {
		MatTVecRowsColsAccum(m, rows, make([]float32, nx), cols, make([]float32, nv), make([]float32, nout), gw, gb)
	}
	cases := []func(){
		func() { MatVecCols(m, []int32{0}, make([]float32, 2), make([]float32, 2)) },
		func() { MatVecCols(m, []int32{0}, make([]float32, 1), make([]float32, 3)) },
		func() { MatVecCols(m, []int32{3}, make([]float32, 1), make([]float32, 2)) },
		func() { MatTVecRows(m, []int32{0}, make([]float32, 2), make([]float32, 3)) },
		func() { MatTVecRows(m, []int32{0}, make([]float32, 1), make([]float32, 2)) },
		func() { MatTVecRows(m, []int32{2}, make([]float32, 1), make([]float32, 3)) },
		func() { accum(m, []int32{0}, 1, []int32{0, 1}, 2, 1, gw, gb) },
		func() { accum(m, []int32{0}, 1, []int32{0, 1, 2, 2}, 4, 4, gw, gb) },
		func() { accum(m, []int32{0}, 1, []int32{5}, 1, 1, gw, gb) },
		func() { accum(m, []int32{0}, 2, []int32{0}, 1, 1, gw, gb) },
		func() { accum(m, []int32{0}, 1, []int32{0}, 2, 1, gw, gb) },
		func() { accum(m, []int32{0}, 1, []int32{0}, 1, 1, NewMatrix(3, 2), gb) },
		func() { accum(m, []int32{0}, 1, []int32{0}, 1, 1, gw, make([]float32, 3)) },
		func() { accum(m, []int32{2}, 1, []int32{0}, 1, 1, gw, gb) },
		func() { OuterAccumRowsCols(gw, gb, []int32{0}, make([]float32, 2), []int32{0}, make([]float32, 1)) },
		func() { OuterAccumRowsCols(gw, gb, []int32{0}, make([]float32, 1), []int32{0}, make([]float32, 2)) },
		func() {
			OuterAccumRowsCols(gw, gb, []int32{0}, make([]float32, 1), []int32{0, 1, 2, 2}, make([]float32, 4))
		},
		func() {
			OuterAccumRowsCols(gw, make([]float32, 3), []int32{0}, make([]float32, 1), []int32{0}, make([]float32, 1))
		},
		func() { OuterAccumRowsCols(gw, gb, []int32{2}, make([]float32, 1), []int32{0}, make([]float32, 1)) },
		func() { NonZero(make([]float32, 3), make([]int32, 2), make([]float32, 3)) },
		func() { BiasReLU(make([]float32, 3), make([]float32, 2), make([]int32, 3), make([]float32, 3)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected shape panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSigmoid(t *testing.T) {
	if !almostEqual(float64(Sigmoid(0)), 0.5, 1e-6) {
		t.Fatal("Sigmoid(0) != 0.5")
	}
	if Sigmoid(50) <= 0.99 || Sigmoid(-50) >= 0.01 {
		t.Fatal("Sigmoid saturation wrong")
	}
	// Symmetry: sigmoid(-x) == 1 - sigmoid(x)
	f := func(v float32) bool {
		x := v
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		return almostEqual(float64(Sigmoid(-x)), 1-float64(Sigmoid(x)), 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBiasReLUAndNonZero(t *testing.T) {
	nan := float32(math.NaN())
	x := []float32{-1, 0, 2, nan, 0.5}
	idx, vals := BiasReLU(x, []float32{0, 0, 0, 0, -1}, make([]int32, 5), make([]float32, 5))
	if x[0] != 0 || x[1] != 0 || x[2] != 2 || x[3] == x[3] || x[4] != 0 {
		t.Fatalf("BiasReLU = %v", x)
	}
	if len(idx) != 2 || idx[0] != 2 || idx[1] != 3 || vals[0] != 2 || vals[1] == vals[1] {
		t.Fatalf("BiasReLU kept %v %v, want [2 3] [2 NaN]", idx, vals)
	}
	idx, vals = NonZero([]float32{0, -3, 0, nan}, make([]int32, 4), make([]float32, 4))
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 3 || vals[0] != -3 || vals[1] == vals[1] {
		t.Fatalf("NonZero = %v %v, want [1 3] [-3 NaN]", idx, vals)
	}
}

func TestLogLoss(t *testing.T) {
	if !almostEqual(LogLoss(0.5, 1), math.Log(2), 1e-6) {
		t.Fatal("LogLoss(0.5,1) wrong")
	}
	if !almostEqual(LogLoss(0.5, 0), math.Log(2), 1e-6) {
		t.Fatal("LogLoss(0.5,0) wrong")
	}
	// Clamped: never infinite.
	if math.IsInf(LogLoss(0, 1), 0) || math.IsInf(LogLoss(1, 0), 0) {
		t.Fatal("LogLoss must clamp")
	}
	if LogLoss(0.9, 1) >= LogLoss(0.1, 1) {
		t.Fatal("better prediction should have lower loss")
	}
}

func TestFillRandomRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMatrix(8, 8)
	m.FillRandom(rng)
	limit := math.Sqrt(6.0 / 16.0)
	nonZero := 0
	for _, v := range m.Data {
		if math.Abs(float64(v)) > limit {
			t.Fatalf("value %v outside Xavier limit %v", v, limit)
		}
		if v != 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("FillRandom produced all zeros")
	}
	// Empty matrix should not panic.
	NewMatrix(0, 5).FillRandom(rng)
}
