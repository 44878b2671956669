package dataset

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// TestRankSamplerMatchesZipf draws 4M ranks from the table sampler and from
// rand.Zipf with the same (s, v, imax) and compares the frequency of every
// rank octave [2^j-1, 2^(j+1)-1): the two counts of an octave are independent
// with variance about their own size, so they must agree within
// 4·sqrt(a+b). The universes put the boundary between table and tail inside
// the range (60,000), past it (1,000: table only) and far below it (10^11:
// the tail's mass comes from the closed form).
func TestRankSamplerMatchesZipf(t *testing.T) {
	const draws = 4_000_000
	for _, n := range []int64{60_000, 1_000, 100_000_000_000} {
		z := newRankSampler(rand.New(rand.NewSource(11)), 1.2, n)
		ref := rand.NewZipf(rand.New(rand.NewSource(12)), 1.2, 1, uint64(n-1))
		if (z.tail == nil) != (n <= headRanks) {
			t.Fatalf("n=%d: tail sampler present=%v", n, z.tail != nil)
		}
		var got, want [64]float64
		for i := 0; i < draws; i++ {
			k := z.next()
			if k >= uint64(n) {
				t.Fatalf("n=%d: drew rank %d", n, k)
			}
			got[bits.Len64(k+1)-1]++
			want[bits.Len64(ref.Uint64()+1)-1]++
		}
		for j := range got {
			if d, sigma := math.Abs(got[j]-want[j]), math.Sqrt(got[j]+want[j]); d > 4*sigma {
				t.Errorf("n=%d octave %d: %.0f draws, rand.Zipf %.0f: apart by %.1f sigma", n, j, got[j], want[j], d/sigma)
			}
		}
		if top := bits.Len64(uint64(n)) - 1; got[top] == 0 {
			t.Errorf("n=%d: no draw in the last octave %d", n, top)
		}
	}
}

// TestZipfMassClosedForm checks the Euler–Maclaurin tail mass against direct
// summation wherever that is affordable.
func TestZipfMassClosedForm(t *testing.T) {
	for _, s := range []float64{1.05, 1.2, 2, 3.5} {
		for _, n := range []int64{headRanks + 1, headRanks + 2, 5000, 60_000, 1 << 20} {
			var direct float64
			for m := n; m > headRanks; m-- { // smallest terms first
				direct += math.Pow(float64(m), -s)
			}
			closed := zipfMass(s, headRanks+1, n)
			if rel := math.Abs(closed-direct) / direct; rel > 1e-12 {
				t.Errorf("s=%v n=%d: closed form %.17g, direct sum %.17g (relative error %.2g)", s, n, closed, direct, rel)
			}
		}
	}
}

// TestRankSamplerTable checks the table the draws index: a proper CDF whose
// guide entries point at the first rank a draw in their slot can select.
func TestRankSamplerTable(t *testing.T) {
	for _, n := range []int64{1, 2, 1000, headRanks, headRanks + 1, 60_000, 200_000_000_000} {
		z := newRankSampler(rand.New(rand.NewSource(1)), 1.2, n)
		h := len(z.cum)
		if h != int(min(n, headRanks)) || len(z.guide) != h {
			t.Fatalf("n=%d: table of %d ranks, guide of %d", n, h, len(z.guide))
		}
		for k := 1; k < h; k++ {
			if !(z.cum[k] > z.cum[k-1]) {
				t.Fatalf("n=%d: cum not increasing at %d", n, k)
			}
		}
		if last := z.cum[h-1]; (z.tail == nil) != (last == 1) || last > 1 {
			t.Fatalf("n=%d: table mass %v, tail=%v", n, last, z.tail != nil)
		}
		for j, g := range z.guide {
			lo := float64(j) / float64(h)
			if int(g) < h && z.cum[g] <= lo || g > 0 && z.cum[g-1] > lo {
				t.Fatalf("n=%d: guide[%d] = %d is not the first rank above %v", n, j, g, lo)
			}
		}
	}
}
