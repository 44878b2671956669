// Package metrics implements the evaluation metrics reported in the paper:
// AUC (area under the ROC curve, the quality measure of Section 7.1),
// log-loss, training throughput and the paper's cost-normalized speedup.
package metrics

import (
	"math"
	"sort"
	"sync"
	"time"
)

// AUC computes the exact area under the ROC curve for binary labels using the
// rank-sum formulation. Tied scores share their average rank. It returns 0.5
// when either class is absent (no ranking information).
func AUC(scores []float64, labels []float64) float64 {
	n := len(scores)
	if n == 0 || n != len(labels) {
		return 0.5
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })

	var posCount, negCount float64
	var rankSumPos float64
	i := 0
	rank := 1.0
	for i < n {
		// Group ties and assign the average rank.
		j := i
		for j < n && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		avgRank := (rank + rank + float64(j-i) - 1) / 2
		for k := i; k < j; k++ {
			if labels[idx[k]] > 0.5 {
				rankSumPos += avgRank
				posCount++
			} else {
				negCount++
			}
		}
		rank += float64(j - i)
		i = j
	}
	if posCount == 0 || negCount == 0 {
		return 0.5
	}
	return (rankSumPos - posCount*(posCount+1)/2) / (posCount * negCount)
}

// LogLossAccumulator accumulates the mean binary cross-entropy.
type LogLossAccumulator struct {
	mu    sync.Mutex
	sum   float64
	count int64
}

// Add records one prediction p for label y, clamping p into (0,1).
func (l *LogLossAccumulator) Add(p, y float64) {
	const eps = 1e-7
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	var loss float64
	if y > 0.5 {
		loss = -math.Log(p)
	} else {
		loss = -math.Log(1 - p)
	}
	l.mu.Lock()
	l.sum += loss
	l.count++
	l.mu.Unlock()
}

// Merge moves everything recorded in other into l, leaving other empty: a
// worker records into its own accumulator and folds it into the shared one
// once per shard instead of contending on the shared mutex per example. l's
// Mean and Count then read as if every Add had been made on l directly.
func (l *LogLossAccumulator) Merge(other *LogLossAccumulator) {
	other.mu.Lock()
	sum, count := other.sum, other.count
	other.sum, other.count = 0, 0
	other.mu.Unlock()
	l.mu.Lock()
	l.sum += sum
	l.count += count
	l.mu.Unlock()
}

// Mean returns the mean loss, or 0 if nothing was recorded.
func (l *LogLossAccumulator) Mean() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count == 0 {
		return 0
	}
	return l.sum / float64(l.count)
}

// Count returns the number of recorded predictions.
func (l *LogLossAccumulator) Count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Throughput summarizes an experiment's training rate.
type Throughput struct {
	// Examples is the number of examples processed.
	Examples int64
	// Elapsed is the (modelled or wall-clock) time taken.
	Elapsed time.Duration
}

// ExamplesPerSecond returns the training throughput, the y-axis of Fig 3(a)
// and Fig 5(b).
func (t Throughput) ExamplesPerSecond() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.Examples) / t.Elapsed.Seconds()
}

// CostNormalizedSpeedup applies the paper's cost normalization
// (Section 7.1): speedup / gpuNodes / costRatio * mpiNodes, where costRatio
// is how many MPI nodes one GPU node costs.
func CostNormalizedSpeedup(speedup float64, gpuNodes, mpiNodes int, costRatio float64) float64 {
	if gpuNodes <= 0 || costRatio <= 0 {
		return 0
	}
	return speedup / float64(gpuNodes) / costRatio * float64(mpiNodes)
}

// Histogram is a fixed-bucket histogram used to summarize per-batch timings.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64
	counts  []int64
	samples int64
	sum     float64
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds; values above the last bound land in an overflow bucket.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.samples++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples
}

// Mean returns the mean of observations, or 0 when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.samples == 0 {
		return 0
	}
	return h.sum / float64(h.samples)
}

// Buckets returns a copy of the per-bucket counts (len(bounds)+1 entries; the
// final entry is the overflow bucket).
func (h *Histogram) Buckets() []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.counts...)
}
