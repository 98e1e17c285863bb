package data

import (
	"math"
	"math/rand"
	"testing"

	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// The margin pair dot2, which LossRows and GradAndLoss share, against
// vec.Dot bit for bit, and the row generators of losssum_ref_test.go.

// oddValue draws a feature or weight value that is sometimes ±0 or NaN.
func oddValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.NaN()
	default:
		return rng.NormFloat64()
	}
}

// randomRows draws n rows of 0…maxLen ascending indices below span, so rows
// are empty, of unequal lengths, and — when span exceeds a model's length —
// truncated by it.
func randomRows(rng *rand.Rand, n, maxLen, span int, nan bool) []glm.Example {
	rows := make([]glm.Example, n)
	for i := range rows {
		var x vec.Sparse
		for j := 0; j < span && len(x.Ind) < maxLen; j++ {
			if rng.Intn(span) < 2*maxLen {
				v := rng.NormFloat64()
				if nan {
					v = oddValue(rng)
				}
				x.Ind = append(x.Ind, int32(j))
				x.Val = append(x.Val, v)
			}
		}
		rows[i] = glm.Example{Label: float64(1 - 2*rng.Intn(2)), X: x}
	}
	return rows
}

// randomModel draws a dim-coordinate model, with ±0 and NaN when nan is set.
func randomModel(rng *rand.Rand, dim int, nan bool) []float64 {
	w := make([]float64, dim)
	for j := range w {
		w[j] = rng.NormFloat64()
		if nan {
			w[j] = oddValue(rng)
		}
	}
	return w
}

// TestDot2MatchesDot pins the margin pair itself, sign of zero and NaN
// payload included: each sum is vec.Dot's, however the two rows' lengths and
// truncation points differ, and an empty second row leaves the first alone.
func TestDot2MatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bits := math.Float64bits
	for trial := 0; trial < 500; trial++ {
		rows := randomRows(rng, 2, rng.Intn(10), 30, true)
		w := randomModel(rng, 1+rng.Intn(30), true)
		c, n := PackExamples(rows).View().c, int32(len(w))
		end1 := rowPrefix(c.ind, c.rowPtr[0], c.rowPtr[1], n, true)
		end2 := rowPrefix(c.ind, c.rowPtr[1], c.rowPtr[2], n, true)
		ix1, v1 := c.ind[c.rowPtr[0]:end1], c.val[c.rowPtr[0]:end1]
		ix2, v2 := c.ind[c.rowPtr[1]:end2], c.val[c.rowPtr[1]:end2]
		sx, sy := dot2(w, ix1, v1, ix2, v2)
		wx, wy := vec.Dot(w, rows[0].X), vec.Dot(w, rows[1].X)
		if bits(sx) != bits(wx) || bits(sy) != bits(wy) {
			t.Fatalf("trial %d: dot2 = (%x, %x), vec.Dot = (%x, %x)", trial, bits(sx), bits(sy), bits(wx), bits(wy))
		}
		if one, zero := dot2(w, ix1, v1, nil, nil); bits(one) != bits(wx) || bits(zero) != 0 {
			t.Fatalf("trial %d: dot2 with an empty second row = (%x, %x), want (%x, +0)", trial, bits(one), bits(zero), bits(wx))
		}
	}
}
