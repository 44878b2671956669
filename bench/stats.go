package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of vs (0 when empty); vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of vs, or 1 when empty: it averages host
// levels, and 1 is the level that adjusts nothing.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 1
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) does (exclusive method), which is what the
// benchmark contract measures spread with. It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64, ok bool) {
	n := len(vs)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 { // quartile i of 4
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), true
}

// percentileMs returns the nearest-rank p-quantile of sorted latencies in
// milliseconds (0 when empty).
func percentileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i]) / float64(time.Millisecond)
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func medianDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sortDurations(s)
	return s[len(s)/2]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
