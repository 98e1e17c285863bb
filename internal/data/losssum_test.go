package data

import (
	"math"
	"math/rand"
	"testing"

	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// The one loss body (LossRows, its fold LossSum, and the dot2 margin pair it
// shares with GradAndLoss) against glm's per-Example reference, bit for bit.

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

// checkLossBody holds LossRows (over the whole view and over its two blocks
// split at cut), LossSum, GradAndLoss's sum and gradient, and the objective
// LossSum gives, to glm.Objective.Value and AddGradient over the same rows.
func checkLossBody(t *testing.T, what string, o glm.Objective, w []float64, rows []glm.Example, cut int) {
	t.Helper()
	v := ViewOf(rows)
	n := len(rows)
	bits := math.Float64bits
	got := make([]float64, n)
	LossRows(o.Loss, w, v, got)
	split := make([]float64, n)
	LossRows(o.Loss, w, v.Sub(0, cut), split[:cut])
	LossRows(o.Loss, w, v.Sub(cut, n), split[cut:])
	sum := 0.0
	for i, e := range rows {
		want := o.Loss.Value(vec.Dot(w, e.X), e.Label)
		if bits(got[i]) != bits(want) || bits(split[i]) != bits(want) {
			t.Fatalf("%s %s: row %d loss %x (split at %d: %x), reference %x", what, o.Loss.Name(), i,
				bits(got[i]), cut, bits(split[i]), bits(want))
		}
		sum += want
	}
	if s := LossSum(o, w, v); bits(s) != bits(sum) {
		t.Fatalf("%s %s: LossSum %x, reference %x", what, o.Loss.Name(), bits(s), bits(sum))
	}
	if n > 0 {
		if f, want := LossSum(o, w, v)/float64(n)+o.Reg.Value(w), o.Value(w, rows); bits(f) != bits(want) {
			t.Fatalf("%s %s: objective %x, Objective.Value %x", what, o.Loss.Name(), bits(f), bits(want))
		}
	}
	g, wantG := make([]float64, len(w)), make([]float64, len(w))
	s, work := GradAndLoss(o, w, v, g)
	wantWork := o.AddGradient(w, rows, wantG)
	if bits(s) != bits(sum) || work != wantWork {
		t.Fatalf("%s %s: GradAndLoss sum %x work %d, reference %x work %d", what, o.Loss.Name(), bits(s), work, bits(sum), wantWork)
	}
	for j := range g {
		if bits(g[j]) != bits(wantG[j]) {
			t.Fatalf("%s %s: GradAndLoss gradient[%d] %x, AddGradient %x", what, o.Loss.Name(), j, bits(g[j]), bits(wantG[j]))
		}
	}
}

// TestLossSumInterleavedBitIdentical holds LossRows, whose margins are
// computed two rows at a time, and LossSum, its fold over a stack chunk, to
// the row-at-a-time reference bit for bit: odd and even row counts, counts
// on both sides of a chunk, empty rows, unequal row lengths, rows truncated
// at len(w), and ±0 and NaN among the values and the weights.
func TestLossSumInterleavedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objs := []glm.Objective{glm.SVM(0), glm.LogReg(0.1), {Loss: glm.Squared{}, Reg: glm.None{}}}
	const span = 40
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(9) // 0…8 rows: odd, even and empty datasets
		if trial%10 == 0 {
			n = 60 + rng.Intn(80) // across LossSum's 64-row chunks
		}
		nan := trial%3 == 0
		rows := randomRows(rng, n, 1+rng.Intn(12), span, nan)
		dim := span
		if trial%2 == 1 {
			dim = 1 + rng.Intn(span) // truncates rows that reach past it
		}
		w := randomModel(rng, dim, nan)
		for _, o := range objs {
			checkLossBody(t, "trial", o, w, rows, rng.Intn(n+1))
		}
	}
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

// FuzzLossRowsMatchesReference draws rows (ascending indices, some past the
// model's length, ±0 and NaN values, empty rows) from a seed and a shape, a
// loss and a regulariser, and a block split, and holds LossRows, LossSum and
// GradAndLoss to glm.Objective.Value and AddGradient bit for bit.
func FuzzLossRowsMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(5), uint8(20), uint8(20), uint8(3), uint8(0))
	f.Add(int64(2), uint8(130), uint8(12), uint8(40), uint8(17), uint8(64), uint8(1))
	f.Add(int64(3), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), uint8(2))
	f.Add(int64(4), uint8(65), uint8(1), uint8(8), uint8(3), uint8(31), uint8(5))
	objs := []glm.Objective{glm.SVM(0), glm.LogReg(0), {Loss: glm.Squared{}, Reg: glm.None{}},
		glm.SVM(0.1), glm.LogReg(0.3), {Loss: glm.Squared{}, Reg: glm.L2{Strength: 0.01}}}
	f.Fuzz(func(t *testing.T, seed int64, n, maxLen, span, dim, cut, obj uint8) {
		rng := rand.New(rand.NewSource(seed))
		rows := randomRows(rng, int(n), int(maxLen), 1+int(span), seed%2 == 0)
		w := randomModel(rng, 1+int(dim), seed%3 == 0)
		checkLossBody(t, "fuzz", objs[int(obj)%len(objs)], w, rows, int(cut)%(int(n)+1))
	})
}
