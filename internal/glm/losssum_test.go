package glm

import (
	"math"
	"math/rand"
	"testing"

	"mllibstar/internal/vec"
)

// refLossSum is the row-at-a-time loop LossSum replaced: one margin at a
// time with vec.Dot, the losses folded in row order.
func refLossSum(o Objective, w []float64, data []Example) float64 {
	sum := 0.0
	for _, e := range data {
		sum += o.Loss.Value(vec.Dot(w, e.X), e.Label)
	}
	return sum
}

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
func randomRows(rng *rand.Rand, n, maxLen, span int, nan bool) []Example {
	rows := make([]Example, n)
	for i := range rows {
		var ind []int32
		var val []float64
		for j := 0; j < span && len(ind) < maxLen; j++ {
			if rng.Intn(span) < 2*maxLen {
				ind = append(ind, int32(j))
				v := rng.NormFloat64()
				if nan {
					v = oddValue(rng)
				}
				val = append(val, v)
			}
		}
		label := 1.0
		if rng.Intn(2) == 0 {
			label = -1
		}
		rows[i] = Example{Label: label, X: vec.Sparse{Ind: ind, Val: val}}
	}
	return rows
}

// TestLossSumInterleavedBitIdentical holds LossSum and Value, whose margins
// are computed two rows at a time, to the row-at-a-time loop bit for bit:
// odd and even row counts, empty rows, unequal row lengths, rows truncated
// at len(w), and ±0 and NaN among the values and the weights.
func TestLossSumInterleavedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objs := []Objective{SVM(0), LogReg(0.1), {Loss: Squared{}, Reg: None{}}}
	const span = 40
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(9) // 0…8 rows: odd, even and empty datasets
		nan := trial%3 == 0
		data := randomRows(rng, n, 1+rng.Intn(12), span, nan)
		dim := span
		if trial%2 == 1 {
			dim = 1 + rng.Intn(span) // truncates rows that reach past it
		}
		w := make([]float64, dim)
		for j := range w {
			w[j] = rng.NormFloat64()
			if nan {
				w[j] = oddValue(rng)
			}
		}
		for _, o := range objs {
			got, want := o.LossSum(w, data), refLossSum(o, w, data)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d %s: LossSum %x, row at a time %x", trial, o.Loss.Name(),
					math.Float64bits(got), math.Float64bits(want))
			}
			if n == 0 {
				continue
			}
			got, want = o.Value(w, data), want/float64(n)+o.Reg.Value(w)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d %s: Value %x, row at a time %x", trial, o.Loss.Name(),
					math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestDot2MatchesDot pins the margin pair itself, sign of zero and NaN
// payload included: each sum is vec.Dot's, however the two rows' lengths and
// truncation points differ.
func TestDot2MatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 500; trial++ {
		rows := randomRows(rng, 2, rng.Intn(10), 30, true)
		w := make([]float64, 1+rng.Intn(30))
		for j := range w {
			w[j] = oddValue(rng)
		}
		sx, sy := dot2(w, rows[0].X, rows[1].X)
		if wx, wy := vec.Dot(w, rows[0].X), vec.Dot(w, rows[1].X); math.Float64bits(sx) != math.Float64bits(wx) ||
			math.Float64bits(sy) != math.Float64bits(wy) {
			t.Fatalf("trial %d: dot2 = (%x, %x), vec.Dot = (%x, %x)", trial,
				math.Float64bits(sx), math.Float64bits(sy), math.Float64bits(wx), math.Float64bits(wy))
		}
	}
}
