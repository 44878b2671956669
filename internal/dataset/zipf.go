package dataset

import (
	"math"
	"math/rand"
)

// headRanks bounds the cumulative table of a rankSampler: the first 4,096
// ranks carry ~92% of the draws of a 60,000-feature universe at s = 1.2 (83%
// of an unbounded one) and the table stays at 40 KB whatever the universe.
const headRanks = 4096

// rankSampler draws feature popularity ranks k in [0, n) with
// P(k) ∝ (1+k)^-s — the distribution of rand.NewZipf(rng, s, 1, n-1), which
// it replaces on the read stage's critical path: rand.Zipf pays an exp and a
// log per rejection-inversion attempt, and most draws land on a few thousand
// ranks. The head of the distribution is therefore sampled by inverse CDF
// over a cumulative table, found through a guide table in O(1) expected
// steps; only draws that fall past the table go to a rand.Zipf over the
// remaining ranks, so the memory is O(1) in the universe size.
type rankSampler struct {
	rng *rand.Rand
	// cum[k] is P(rank <= k) for the tabulated ranks k < len(cum).
	cum []float64
	// guide[j] is the first rank whose cum exceeds j/len(guide), len(cum) when
	// none does: a draw u starts its scan at guide[u*len(guide)].
	guide []uint16
	// tail draws the ranks past the table (offset by len(cum)); nil when the
	// table covers the whole universe.
	tail *rand.Zipf
}

// newRankSampler builds the sampler for a universe of n >= 1 ranks.
func newRankSampler(rng *rand.Rand, s float64, n int64) *rankSampler {
	h := int(min(n, headRanks))
	z := &rankSampler{rng: rng, cum: make([]float64, h), guide: make([]uint16, h)}
	var head float64
	for k := range z.cum {
		head += math.Pow(float64(k+1), -s)
		z.cum[k] = head
	}
	total := head
	if n > int64(h) {
		total += zipfMass(s, int64(h)+1, n)
		z.tail = rand.NewZipf(rng, s, float64(1+h), uint64(n-1-int64(h)))
	}
	for k := range z.cum {
		z.cum[k] /= total
	}
	if z.tail == nil {
		z.cum[h-1] = 1 // whatever the rounding, every u < 1 lands in the table
	}
	k := 0
	for j := range z.guide {
		for k < h && z.cum[k] <= float64(j)/float64(h) {
			k++
		}
		z.guide[j] = uint16(k)
	}
	return z
}

// next draws one rank.
func (z *rankSampler) next() uint64 {
	u := z.rng.Float64()
	k := int(z.guide[min(int(u*float64(len(z.guide))), len(z.guide)-1)])
	for k < len(z.cum) && z.cum[k] <= u {
		k++
	}
	if k < len(z.cum) {
		return uint64(k)
	}
	return uint64(len(z.cum)) + z.tail.Uint64()
}

// zipfMass returns the sum of m^-s over the integers a <= m <= b by the
// Euler–Maclaurin formula: the integral, the end-point mean, and the first-
// and third-derivative corrections. The first omitted term is
// s(s+1)(s+2)(s+3)(s+4)·a^-(s+5)/30240; at a = headRanks+1, the only place
// the sampler sums from, that is below 1e-19 of the sum for every s in
// (1, 8], so a tail of 10^11 ranks costs what a tail of ten does.
func zipfMass(s float64, a, b int64) float64 {
	fa, fb := float64(a), float64(b)
	f := func(x float64) float64 { return math.Pow(x, -s) }
	d1 := func(x float64) float64 { return -s * math.Pow(x, -s-1) }
	d3 := func(x float64) float64 { return -s * (s + 1) * (s + 2) * math.Pow(x, -s-3) }
	// a^(1-s) - b^(1-s), without cancelling when b is close to a.
	integral := -math.Pow(fa, 1-s) * math.Expm1((1-s)*math.Log1p((fb-fa)/fa)) / (s - 1)
	return integral +
		(f(fa)+f(fb))/2 +
		(d1(fb)-d1(fa))/12 -
		(d3(fb)-d3(fa))/720
}
