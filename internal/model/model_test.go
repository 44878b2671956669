package model

import (
	"testing"
	"testing/quick"
)

func TestPaperSpecsMatchTable3(t *testing.T) {
	specs := PaperSpecs()
	if len(specs) != 5 {
		t.Fatalf("want 5 models, got %d", len(specs))
	}
	// Table 3 rows.
	want := []struct {
		name   string
		nnz    int
		sparse int64
		dense  int64
		sizeGB float64
		mpi    int
	}{
		{"A", 100, 8e9, 7e5, 300, 100},
		{"B", 100, 2e10, 2e4, 600, 80},
		{"C", 500, 6e10, 2e6, 2000, 75},
		{"D", 500, 1e11, 4e6, 6000, 150},
		{"E", 500, 2e11, 7e6, 10000, 128},
	}
	for i, w := range want {
		s := specs[i]
		if s.Name != w.name || s.NonZerosPerExample != w.nnz || s.SparseParams != w.sparse ||
			s.DenseParams != w.dense || s.SizeGB != w.sizeGB || s.MPINodes != w.mpi {
			t.Fatalf("spec %s does not match Table 3: %+v", w.name, s)
		}
	}
}

func TestSparseDominatesDense(t *testing.T) {
	// The paper: dense parameters are 4-5 orders of magnitude fewer than sparse.
	for _, s := range PaperSpecs() {
		ratio := float64(s.SparseParams) / float64(s.DenseParams)
		if ratio < 1e3 {
			t.Fatalf("model %s: sparse/dense ratio %v too small", s.Name, ratio)
		}
	}
}

func TestGet(t *testing.T) {
	s, ok := Get("D")
	if !ok || s.MPINodes != 150 {
		t.Fatalf("Get(D) = %+v, %v", s, ok)
	}
	if _, ok := Get("Z"); ok {
		t.Fatal("Get(Z) should fail")
	}
}

func TestScaledPreservesShape(t *testing.T) {
	for _, s := range PaperSpecs() {
		sc := s.Scaled(BenchScale)
		if sc.NonZerosPerExample != s.NonZerosPerExample {
			t.Fatalf("%s: scaling must not change non-zeros per example", s.Name)
		}
		if sc.EmbeddingDim != s.EmbeddingDim {
			t.Fatalf("%s: scaling must not change embedding dim", s.Name)
		}
		if sc.MPINodes != s.MPINodes {
			t.Fatalf("%s: scaling must not change MPI node count", s.Name)
		}
		if sc.SparseParams <= 0 || sc.DenseParams <= 0 {
			t.Fatalf("%s: scaled params must be positive", s.Name)
		}
		if sc.SparseParams >= s.SparseParams {
			t.Fatalf("%s: scaled sparse params not reduced", s.Name)
		}
	}
}

func TestScaledOrderingPreserved(t *testing.T) {
	// Relative ordering of model sizes must be preserved after scaling.
	specs := benchSpecs()
	for i := 1; i < len(specs); i++ {
		if specs[i].SparseParams < specs[i-1].SparseParams {
			t.Fatalf("scaled sparse ordering broken at %s", specs[i].Name)
		}
	}
}

func TestScaledIdentityForSmallFactor(t *testing.T) {
	a, _ := Get("A")
	if got := a.Scaled(1); got.SparseParams != a.SparseParams || got.Name != "A" {
		t.Fatal("factor 1 should be identity")
	}
	if got := a.Scaled(0); got.SparseParams != a.SparseParams {
		t.Fatal("factor 0 should be identity")
	}
}

// DenseParamCount returns the exact number of dense parameters (weights and
// biases) of a network with the given input dimension and hidden widths plus
// a single sigmoid output: the reference the layer-budget property checks
// hiddenLayersForBudget against.
func DenseParamCount(inputDim int, hidden []int) int64 {
	var total int64
	prev := inputDim
	for _, h := range hidden {
		total += int64(prev)*int64(h) + int64(h)
		prev = h
	}
	total += int64(prev) + 1 // output layer
	return total
}

func TestDenseParamCount(t *testing.T) {
	// input 4, hidden [3], output 1: 4*3+3 + 3+1 = 19
	if got := DenseParamCount(4, []int{3}); got != 19 {
		t.Fatalf("DenseParamCount = %d, want 19", got)
	}
	// no hidden: 4+1 = 5
	if got := DenseParamCount(4, nil); got != 5 {
		t.Fatalf("DenseParamCount no hidden = %d, want 5", got)
	}
}

func TestHiddenLayersForBudgetProperty(t *testing.T) {
	f := func(budget uint32, dim uint8) bool {
		b := int64(budget%1_000_000) + 1
		d := int(dim%32) + 1
		hidden := hiddenLayersForBudget(b, d)
		if len(hidden) == 0 {
			return false
		}
		actual := DenseParamCount(d, hidden)
		// Must be positive and within a reasonable factor of the budget when
		// the budget is big enough to matter.
		if actual <= 0 {
			return false
		}
		if b > 1000 && len(hidden) == 2 {
			ratio := float64(actual) / float64(b)
			return ratio > 0.4 && ratio < 2.5
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTinySpec(t *testing.T) {
	s := TinySpec()
	if s.SparseParams <= 0 || s.EmbeddingDim <= 0 || len(s.HiddenLayers) == 0 {
		t.Fatal("tiny spec malformed")
	}
	if s.String() == "" {
		t.Fatal("String should not be empty")
	}
}

// benchSpecs returns the five Table 3 models at hps's default scale.
func benchSpecs() []Spec {
	var out []Spec
	for _, s := range PaperSpecs() {
		out = append(out, s.Scaled(BenchScale))
	}
	return out
}

func TestBenchSpecs(t *testing.T) {
	specs := benchSpecs()
	if len(specs) != 5 {
		t.Fatalf("want 5 bench specs, got %d", len(specs))
	}
	for _, s := range specs {
		// Must be small enough to run as a benchmark.
		if s.SparseParams > 10_000_000 {
			t.Fatalf("%s: bench spec too large: %d sparse params", s.Name, s.SparseParams)
		}
	}
}
