package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The layer products' contract, checked against plain scalar loops that
// follow the package comment's summation order literally, one output at a
// time: every output must match bit for bit.

// matVecColsLoop is MatVecCols as the contract states it: each row sums its
// listed terms in list order, from zero.
func matVecColsLoop(m *Matrix, cols []int32, x []float32) []float32 {
	out := make([]float32, m.Rows)
	for r := range out {
		var s float32
		for k, c := range cols {
			s += m.At(r, int(c)) * x[k]
		}
		out[r] = s
	}
	return out
}

// matTVecLoop is the transposed product as the contract states it, column by
// column: the listed rows four at a time, then the rest one at a time. cols
// == nil means every column (MatTVecRows).
func matTVecLoop(m *Matrix, rows []int32, x []float32, cols []int32) []float32 {
	if cols == nil {
		cols = make([]int32, m.Cols)
		for j := range cols {
			cols[j] = int32(j)
		}
	}
	out := make([]float32, len(cols))
	for o, c32 := range cols {
		c := int(c32)
		var s float32
		k := 0
		for ; k+3 < len(rows); k += 4 {
			s += x[k]*m.At(int(rows[k]), c) + x[k+1]*m.At(int(rows[k+1]), c) +
				x[k+2]*m.At(int(rows[k+2]), c) + x[k+3]*m.At(int(rows[k+3]), c)
		}
		for ; k < len(rows); k++ {
			s += x[k] * m.At(int(rows[k]), c)
		}
		out[o] = s
	}
	return out
}

// outerLoop is the weight-gradient update as the contract states it: starting
// from c's accumulators, each listed element gets x[k]·v[o] added once and
// each listed row's bias x[k]; every other element keeps its bits.
func outerLoop(c kernelCase) (*Matrix, []float32) {
	gw, gb := c.gw.Clone(), append([]float32(nil), c.gb...)
	for k, r := range c.rows {
		for o, col := range c.cols {
			gw.Set(int(r), int(col), gw.At(int(r), int(col))+c.coef[k]*c.vals[o])
		}
		gb[r] += c.coef[k]
	}
	return gw, gb
}

// sameBits reports whether a and b hold the same values bit for bit, any
// NaN matching any NaN (the loops and the kernels may meet two NaN operands in
// one addition, whose payload the hardware picks).
func sameBits(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return i
		}
	}
	return -1
}

// kernelCase is one input to the layer kernels: a matrix, a row list with
// its coefficients, a column list with its values, and the weight and bias
// gradients (gw shaped as m, gb one per row) the backward kernels add into.
type kernelCase struct {
	m, gw      *Matrix
	rows, cols []int32
	coef, vals []float32
	gb         []float32
}

// randomCase fills a rows x cols case with values in [-1, 1), listing each
// row and column with probability p.
func randomCase(rng *rand.Rand, rows, cols int, p float64) kernelCase {
	c := kernelCase{m: NewMatrix(rows, cols), gw: NewMatrix(rows, cols), gb: make([]float32, rows)}
	for _, buf := range [][]float32{c.m.Data, c.gw.Data, c.gb} {
		for i := range buf {
			buf[i] = rng.Float32()*2 - 1
		}
	}
	c.rows, c.coef = randomList(rng, rows, p)
	c.cols, c.vals = randomList(rng, cols, p)
	return c
}

// checkKernels runs every layer kernel on c and compares it with the scalar
// loops: the forward and transposed products with theirs, and the weight
// gradients of MatTVecRowsColsAccum and OuterAccumRowsCols with outerLoop's.
// MatTVecRowsColsAccum's product must also equal MatTVecRows on every column
// it computes.
func checkKernels(t *testing.T, name string, c kernelCase) {
	t.Helper()
	fwd := make([]float32, c.m.Rows)
	MatVecCols(c.m, c.cols, c.vals, fwd)
	if i := sameBits(fwd, matVecColsLoop(c.m, c.cols, c.vals)); i >= 0 {
		t.Fatalf("%s: MatVecCols row %d = %v, loop %v", name, i, fwd, matVecColsLoop(c.m, c.cols, c.vals))
	}
	every := make([]float32, c.m.Cols)
	MatTVecRows(c.m, c.rows, c.coef, every)
	if i := sameBits(every, matTVecLoop(c.m, c.rows, c.coef, nil)); i >= 0 {
		t.Fatalf("%s: MatTVecRows column %d = %v, loop %v", name, i, every, matTVecLoop(c.m, c.rows, c.coef, nil))
	}
	some := make([]float32, len(c.cols))
	gw, gb := c.gw.Clone(), append([]float32(nil), c.gb...)
	MatTVecRowsColsAccum(c.m, c.rows, c.coef, c.cols, c.vals, some, gw, gb)
	if i := sameBits(some, matTVecLoop(c.m, c.rows, c.coef, c.cols)); i >= 0 {
		t.Fatalf("%s: MatTVecRowsColsAccum output %d = %v, loop %v", name, i, some, matTVecLoop(c.m, c.rows, c.coef, c.cols))
	}
	for o, col := range c.cols {
		if sameBits(some[o:o+1], every[col:col+1]) >= 0 {
			t.Fatalf("%s: column %d: MatTVecRowsColsAccum %v, MatTVecRows %v", name, col, some[o], every[col])
		}
	}
	wantW, wantB := outerLoop(c)
	if i := sameBits(gw.Data, wantW.Data); i >= 0 {
		t.Fatalf("%s: MatTVecRowsColsAccum weight gradient %d = %v, loop %v", name, i, gw.Data, wantW.Data)
	}
	if i := sameBits(gb, wantB); i >= 0 {
		t.Fatalf("%s: MatTVecRowsColsAccum bias gradient %d = %v, loop %v", name, i, gb, wantB)
	}
	gw, gb = c.gw.Clone(), append([]float32(nil), c.gb...)
	OuterAccumRowsCols(gw, gb, c.rows, c.coef, c.cols, c.vals)
	if i := sameBits(gw.Data, wantW.Data); i >= 0 {
		t.Fatalf("%s: OuterAccumRowsCols weight gradient %d = %v, loop %v", name, i, gw.Data, wantW.Data)
	}
	if i := sameBits(gb, wantB); i >= 0 {
		t.Fatalf("%s: OuterAccumRowsCols bias gradient %d = %v, loop %v", name, i, gb, wantB)
	}
}

// TestDenseKernelsMatchScalarLoops covers shapes whose widths and list
// lengths are and are not multiples of 4, with empty, partial and full
// lists.
func TestDenseKernelsMatchScalarLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{0, 1, 3, 4, 5, 7, 8, 13, 17, 32}
	for _, rows := range sizes {
		for _, cols := range sizes {
			for _, p := range []float64{0, 0.3, 0.5, 1} {
				checkKernels(t, "random", randomCase(rng, rows, cols, p))
			}
		}
	}
}

// TestDenseKernelsSkipNonFinite puts an Inf and a NaN into every row and
// column the lists leave out, in the matrix and in the weight and bias
// gradients: the outputs must be exactly those of the same case with finite
// values there, and the gradients' unlisted elements must keep their bits.
func TestDenseKernelsSkipNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, shape := range [][2]int{{4, 4}, {5, 7}, {9, 6}, {13, 11}} {
		rows, cols := shape[0], shape[1]
		for trial := 0; trial < 20; trial++ {
			c := randomCase(rng, rows, cols, 0.5)
			clean := c.m
			listedRow, listedCol := make([]bool, rows), make([]bool, cols)
			for _, r := range c.rows {
				listedRow[r] = true
			}
			for _, j := range c.cols {
				listedCol[j] = true
			}
			poisoned := clean.Clone()
			for r := 0; r < rows; r++ {
				for j := 0; j < cols; j++ {
					if !listedRow[r] || !listedCol[j] {
						poisoned.Set(r, j, []float32{inf, -inf, nan}[(r+j)%3])
					}
				}
			}
			// The forward product reads every row on the listed columns and
			// the transposed products every column on the listed rows, so
			// each is poisoned only where it must not look.
			fwdClean, fwdBad := make([]float32, rows), make([]float32, rows)
			fwdPoison := clean.Clone()
			for r := 0; r < rows; r++ {
				for j := 0; j < cols; j++ {
					if !listedCol[j] {
						fwdPoison.Set(r, j, poisoned.At(r, j))
					}
				}
			}
			MatVecCols(clean, c.cols, c.vals, fwdClean)
			MatVecCols(fwdPoison, c.cols, c.vals, fwdBad)
			if i := sameBits(fwdClean, fwdBad); i >= 0 {
				t.Fatalf("MatVecCols: unlisted column poisoned row %d: %v", i, fwdBad)
			}
			bwdPoison := clean.Clone()
			for r := 0; r < rows; r++ {
				if !listedRow[r] {
					copy(bwdPoison.Row(r), poisoned.Row(r))
				}
			}
			everyClean, everyBad := make([]float32, cols), make([]float32, cols)
			MatTVecRows(clean, c.rows, c.coef, everyClean)
			MatTVecRows(bwdPoison, c.rows, c.coef, everyBad)
			if i := sameBits(everyClean, everyBad); i >= 0 {
				t.Fatalf("MatTVecRows: unlisted row poisoned column %d: %v", i, everyBad)
			}
			// The weight and bias gradients carry the poison where the lists
			// leave them out; the kernels must neither read nor write there.
			poison := func(gw *Matrix, gb []float32) {
				for r := 0; r < rows; r++ {
					for j := 0; j < cols; j++ {
						if !listedRow[r] || !listedCol[j] {
							gw.Set(r, j, poisoned.At(r, j))
						}
					}
					if !listedRow[r] {
						gb[r] = []float32{inf, -inf, nan}[r%3]
					}
				}
			}
			gwClean, gbClean := c.gw.Clone(), append([]float32(nil), c.gb...)
			gwBad, gbBad := c.gw.Clone(), append([]float32(nil), c.gb...)
			poison(gwBad, gbBad)
			someClean, someBad := make([]float32, len(c.cols)), make([]float32, len(c.cols))
			MatTVecRowsColsAccum(clean, c.rows, c.coef, c.cols, c.vals, someClean, gwClean, gbClean)
			MatTVecRowsColsAccum(poisoned, c.rows, c.coef, c.cols, c.vals, someBad, gwBad, gbBad)
			if i := sameBits(someClean, someBad); i >= 0 {
				t.Fatalf("MatTVecRowsColsAccum: unlisted row or column poisoned output %d: %v", i, someBad)
			}
			poison(gwClean, gbClean)
			if i := sameBits(gwClean.Data, gwBad.Data); i >= 0 {
				t.Fatalf("MatTVecRowsColsAccum: weight gradient %d = %v, want %v", i, gwBad.Data[i], gwClean.Data[i])
			}
			if i := sameBits(gbClean, gbBad); i >= 0 {
				t.Fatalf("MatTVecRowsColsAccum: bias gradient %d = %v, want %v", i, gbBad[i], gbClean[i])
			}
			gwOuter, gbOuter := c.gw.Clone(), append([]float32(nil), c.gb...)
			poison(gwOuter, gbOuter)
			OuterAccumRowsCols(gwOuter, gbOuter, c.rows, c.coef, c.cols, c.vals)
			if i := sameBits(gwOuter.Data, gwBad.Data); i >= 0 {
				t.Fatalf("OuterAccumRowsCols: weight gradient %d = %v, want %v", i, gwOuter.Data[i], gwBad.Data[i])
			}
			if i := sameBits(gbOuter, gbBad); i >= 0 {
				t.Fatalf("OuterAccumRowsCols: bias gradient %d = %v, want %v", i, gbOuter[i], gbBad[i])
			}
			for _, v := range append(append(fwdBad, everyBad...), someBad...) {
				if math.IsInf(float64(v), 0) || v != v {
					t.Fatalf("non-finite output %v from finite listed entries", v)
				}
			}
		}
	}
}

// kernelCaseFrom decodes a case from fuzz bytes: two shape bytes (0..12
// rows and columns), one list bit per row and per column, then the matrix,
// coefficients, values, weight gradient and bias gradient as raw float32
// bits, so any Inf, NaN or subnormal can appear anywhere. Bytes past the end
// read as zero.
func kernelCaseFrom(data []byte) kernelCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nextFloat := func() float32 {
		var b [4]byte
		for i := range b {
			b[i] = next()
		}
		return math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
	}
	rows, cols := int(next()%13), int(next()%13)
	c := kernelCase{m: NewMatrix(rows, cols), gw: NewMatrix(rows, cols), rows: []int32{}, cols: []int32{}, gb: make([]float32, rows)}
	var bits uint32
	for i := 0; i < rows+cols; i++ {
		if i%8 == 0 {
			bits = uint32(next())
		}
		if bits&(1<<(i%8)) == 0 {
			continue
		}
		if i < rows {
			c.rows = append(c.rows, int32(i))
		} else {
			c.cols = append(c.cols, int32(i-rows))
		}
	}
	for i := range c.m.Data {
		c.m.Data[i] = nextFloat()
	}
	for range c.rows {
		c.coef = append(c.coef, nextFloat())
	}
	for range c.cols {
		c.vals = append(c.vals, nextFloat())
	}
	for _, buf := range [][]float32{c.gw.Data, c.gb} {
		for i := range buf {
			buf[i] = nextFloat()
		}
	}
	return c
}

// FuzzDenseKernels checks the layer kernels against the scalar loops on
// arbitrary shapes, lists and float bits.
func FuzzDenseKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 4, 0xff})
	f.Add([]byte{5, 7, 0b10110101, 0b1101, 0, 0, 0x80, 0x3f, 0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0x7f})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		seed := []byte{byte(rng.Intn(13)), byte(rng.Intn(13)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		for j := 0; j < 400; j++ { // enough for a 12x12 case's every float
			seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(rng.Float32()*2-1))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkKernels(t, "fuzz", kernelCaseFrom(data))
	})
}
