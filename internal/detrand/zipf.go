package detrand

import (
	"math"
	"math/rand"
)

// zipfBuckets is how many equal slices of Float64's range [0, 1) the Zipf
// table splits. At 2¹⁶ the repository's generator shapes (s = 1.7, v = 8,
// imax from 15 to 2·10⁵) have 95–99.8 % of their buckets certain (86 % at
// s = 1.1, imax = 9 999), and the table (256 KB) builds in 3–4 ms on a
// 2-vCPU Xeon — one hinv per bucket edge.
const zipfBuckets = 1 << 16

// Zipf is math/rand's Zipf variate generator, draw for draw and bit for bit:
// NewZipf(r, s, v, imax) returns, from the same r, exactly the values and
// consumes exactly the draws of rand.NewZipf(r, s, v, imax).
//
// math/rand draws by rejection-inversion (Hörmann & Derflinger 1996): one
// uniform r = Float64(), x = hinv(ur(r)), the candidate k = floor(x + 0.5),
// accepted at once when k − x ≤ s and otherwise after a second test or a
// fresh draw. Every step of the inverse is monotone in r, so over a small
// enough interval of r the first draw is always accepted with one and the
// same k. The table records that k for every bucket
// [b/zipfBuckets, (b+1)/zipfBuckets) where it is certain, and a draw whose r
// falls in such a bucket returns it after consuming its one Float64, as the
// exact loop would have; every other draw runs math/rand's loop (accept),
// expression for expression, so that a compiler fusing multiply-adds fuses
// them here as it does in the standard library.
//
// A bucket is certain when hinv, computed at both of its edges exactly as the
// loop computes it, gives the same k at both, and both edges lie inside
// [max(k−0.5, k−s), k+0.5] by a guard band (band). Between the edges the
// exact inverse of the computed ur is monotone, and the computed x differs
// from it by the error of one Log and one Exp (≤ 1 ulp each) — about 10⁻⁹ at
// imax = 2·10⁵ — far inside the band, so every r in the bucket rounds to k
// and passes k − x ≤ s.
//
// TestZipfEqualsMathRand, TestZipfBucketEdges and FuzzZipfEqualsMathRand
// hold this to math/rand.
type Zipf struct {
	r            *rand.Rand
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64

	// table[b] is the k every r in bucket b draws, or -1 when b is not
	// certain.
	table []int32
}

// NewZipf returns a Zipf variate generator drawing from r, the generator
// rand.NewZipf(r, s, v, imax) is: values k ∈ [0, imax] with P(k) ∝ (v+k)^−s.
// Like rand.NewZipf it returns nil unless s > 1 and v ≥ 1.
func NewZipf(r *rand.Rand, s float64, v float64, imax uint64) *Zipf {
	z := new(Zipf)
	if s <= 1.0 || v < 1 {
		return nil
	}
	z.r = r
	z.v = v
	z.q = s
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(float64(imax) + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	z.table = make([]int32, zipfBuckets)
	x0 := z.edge(0)
	for b := range z.table {
		x1 := z.edge(b + 1)
		z.table[b] = z.certain(x0, x1)
		x0 = x1
	}
	return z
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *Zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// edge returns x at the lower edge of bucket b, r = b/zipfBuckets (exact: the
// bucket count is a power of two).
func (z *Zipf) edge(b int) float64 {
	r := float64(b) / zipfBuckets
	ur := z.hxm + r*z.hx0minusHxm
	return z.hinv(ur)
}

// band is the guard band around the rounding and acceptance thresholds at
// x: 10⁻⁶ absolute plus 2⁻⁴⁰·(1 + 1/(s−1)) relative to v + x. The error of
// the computed x is relative to v + x too: Log's argument carries a rounding
// of 2⁻⁵³ that the exponent 1/(1−s) magnifies, and Exp adds a few ulps — at
// most about (2/(s−1) + 16)·2⁻⁵³ for v + x < 10⁶, a thousandth of the band.
func (z *Zipf) band(x float64) float64 {
	return 1e-6 + (z.v+x)*(1-z.oneminusQinv)*0x1p-40
}

// certain returns the k a bucket with edge values x0, x1 always accepts on
// its first draw, or -1. Both edges inside k's band round to k. Every
// comparison is written so that a NaN edge makes the bucket uncertain.
func (z *Zipf) certain(x0, x1 float64) int32 {
	k := math.Floor(x0 + 0.5)
	if !(k >= 0 && k < math.MaxInt32) {
		return -1
	}
	for _, x := range [2]float64{x0, x1} {
		band := z.band(x)
		if !(x >= max(k-0.5, k-z.s)+band && x <= k+0.5-band) {
			return -1
		}
	}
	return int32(k)
}

// Uint64 returns the next value, the one math/rand's Zipf.Uint64 returns.
func (z *Zipf) Uint64() uint64 {
	r := z.r.Float64() // r on [0,1)
	if k := z.table[int(r*zipfBuckets)]; k >= 0 {
		return uint64(k)
	}
	for {
		if k, ok := z.accept(r); ok {
			return uint64(k)
		}
		r = z.r.Float64()
	}
}

// accept is one pass of math/rand's rejection-inversion loop for the draw r:
// the candidate k and whether the loop stops with it.
func (z *Zipf) accept(r float64) (k float64, ok bool) {
	ur := z.hxm + r*z.hx0minusHxm
	x := z.hinv(ur)
	k = math.Floor(x + 0.5)
	if k-x <= z.s {
		return k, true
	}
	return k, ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q)
}
