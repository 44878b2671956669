package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestAUCPerfectRanking(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []float64{0, 0, 1, 1}
	if got := AUC(scores, labels); got != 1.0 {
		t.Fatalf("perfect AUC = %v", got)
	}
}

func TestAUCWorstRanking(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.1, 0.2}
	labels := []float64{0, 0, 1, 1}
	if got := AUC(scores, labels); got != 0.0 {
		t.Fatalf("inverted AUC = %v", got)
	}
}

func TestAUCRandomIsHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 20000
	scores := make([]float64, n)
	labels := make([]float64, n)
	for i := range scores {
		scores[i] = rng.Float64()
		if rng.Float64() < 0.3 {
			labels[i] = 1
		}
	}
	got := AUC(scores, labels)
	if math.Abs(got-0.5) > 0.02 {
		t.Fatalf("random AUC = %v, want ~0.5", got)
	}
}

func TestAUCTies(t *testing.T) {
	// All scores equal: AUC must be exactly 0.5 by average-rank handling.
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []float64{1, 0, 1, 0}
	if got := AUC(scores, labels); got != 0.5 {
		t.Fatalf("tied AUC = %v, want 0.5", got)
	}
}

func TestAUCDegenerate(t *testing.T) {
	if AUC(nil, nil) != 0.5 {
		t.Fatal("empty AUC should be 0.5")
	}
	if AUC([]float64{1}, []float64{1, 0}) != 0.5 {
		t.Fatal("mismatched lengths should be 0.5")
	}
	if AUC([]float64{0.3, 0.7}, []float64{1, 1}) != 0.5 {
		t.Fatal("single-class AUC should be 0.5")
	}
}

func TestAUCInRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 2
		scores := make([]float64, n)
		labels := make([]float64, n)
		for i := range scores {
			scores[i] = rng.Float64()
			if rng.Float64() < 0.5 {
				labels[i] = 1
			}
		}
		a := AUC(scores, labels)
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAUCComplementProperty(t *testing.T) {
	// Negating the scores should give 1 - AUC when there are no ties.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 4
		scores := make([]float64, n)
		neg := make([]float64, n)
		labels := make([]float64, n)
		hasPos, hasNeg := false, false
		for i := range scores {
			scores[i] = rng.NormFloat64()
			neg[i] = -scores[i]
			if rng.Float64() < 0.5 {
				labels[i] = 1
				hasPos = true
			} else {
				hasNeg = true
			}
		}
		if !hasPos || !hasNeg {
			return true
		}
		return math.Abs(AUC(scores, labels)+AUC(neg, labels)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLogLossAccumulator(t *testing.T) {
	var l LogLossAccumulator
	if l.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
	l.Add(0.5, 1)
	l.Add(0.5, 0)
	if math.Abs(l.Mean()-math.Log(2)) > 1e-9 {
		t.Fatalf("mean = %v", l.Mean())
	}
	if l.Count() != 2 {
		t.Fatal("count")
	}
	// Extreme predictions must not yield Inf.
	l.Add(0, 1)
	l.Add(1, 0)
	if math.IsInf(l.Mean(), 0) || math.IsNaN(l.Mean()) {
		t.Fatal("loss must be clamped")
	}
}

// TestLogLossAccumulatorMerge: per-worker accumulators folded into a shared
// one — concurrently, the way the trainer's GPU workers do it — read exactly
// like one accumulator that saw every Add, and a merged-from accumulator is
// empty again (a second Merge must not double count).
func TestLogLossAccumulatorMerge(t *testing.T) {
	const workers, rounds, perRound = 4, 25, 8
	var shared, direct LogLossAccumulator
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var own LogLossAccumulator
			for r := 0; r < rounds; r++ {
				for i := 0; i < perRound; i++ {
					own.Add(float64(1+(w+r+i)%9)/10, float64(i%2))
				}
				shared.Merge(&own)
				if own.Count() != 0 || own.Mean() != 0 {
					t.Errorf("worker %d: merged-from accumulator not emptied", w)
				}
				shared.Merge(&own) // empty: must change nothing
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for r := 0; r < rounds; r++ {
			for i := 0; i < perRound; i++ {
				direct.Add(float64(1+(w+r+i)%9)/10, float64(i%2))
			}
		}
	}
	if shared.Count() != direct.Count() || shared.Count() != workers*rounds*perRound {
		t.Fatalf("merged count %d, direct %d", shared.Count(), direct.Count())
	}
	// The partial sums associate differently, so the means agree to rounding.
	if diff := math.Abs(shared.Mean() - direct.Mean()); diff > 1e-12 {
		t.Fatalf("merged mean %v != direct mean %v", shared.Mean(), direct.Mean())
	}
}

func TestThroughput(t *testing.T) {
	tp := Throughput{Examples: 1000, Elapsed: 2 * time.Second}
	if tp.ExamplesPerSecond() != 500 {
		t.Fatalf("eps = %v", tp.ExamplesPerSecond())
	}
	if (Throughput{}).ExamplesPerSecond() != 0 {
		t.Fatal("degenerate throughput should be 0")
	}
}

func TestCostNormalizedSpeedup(t *testing.T) {
	// Paper Model A row: speedup 1.8, 4 GPU nodes, 100 MPI nodes, 10x cost
	// ratio → 4.5 (paper reports 4.4 from unrounded speedup).
	got := CostNormalizedSpeedup(1.8, 4, 100, 10)
	if math.Abs(got-4.5) > 1e-9 {
		t.Fatalf("cost-normalized speedup = %v", got)
	}
	if CostNormalizedSpeedup(2, 0, 100, 10) != 0 {
		t.Fatal("zero gpu nodes should be 0")
	}
	if CostNormalizedSpeedup(2, 4, 100, 0) != 0 {
		t.Fatal("zero cost ratio should be 0")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	b := h.Buckets()
	if len(b) != 4 {
		t.Fatalf("bucket count = %d", len(b))
	}
	for i, want := range []int64{1, 1, 1, 1} {
		if b[i] != want {
			t.Fatalf("bucket %d = %d", i, b[i])
		}
	}
	if math.Abs(h.Mean()-138.875) > 1e-9 {
		t.Fatalf("mean = %v", h.Mean())
	}
}
