package data_test

// The one loss body (LossRows, its fold LossSum, and GradAndLoss, which
// shares its margin pair) against the per-Example reference in
// internal/oracle, bit for bit. An external test package: oracle imports
// data.

import (
	"math"
	"math/rand"
	"testing"

	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/oracle"
	"mllibstar/internal/vec"
)

// checkLossBody holds LossRows (over the whole view and over its two blocks
// split at cut), LossSum, GradAndLoss's sum and gradient, and the objective
// LossSum gives, to oracle.Value and AddGradient over the same rows.
func checkLossBody(t *testing.T, what string, o glm.Objective, w []float64, rows []glm.Example, cut int) {
	t.Helper()
	v := data.ViewOf(rows)
	n := len(rows)
	bits := math.Float64bits
	got := make([]float64, n)
	data.LossRows(o.Loss, w, v, got)
	split := make([]float64, n)
	data.LossRows(o.Loss, w, v.Sub(0, cut), split[:cut])
	data.LossRows(o.Loss, w, v.Sub(cut, n), split[cut:])
	sum := 0.0
	for i, e := range rows {
		want := o.Loss.Value(vec.Dot(w, e.X), e.Label)
		if bits(got[i]) != bits(want) || bits(split[i]) != bits(want) {
			t.Fatalf("%s %s: row %d loss %x (split at %d: %x), reference %x", what, o.Loss.Name(), i,
				bits(got[i]), cut, bits(split[i]), bits(want))
		}
		sum += want
	}
	if s := data.LossSum(o, w, v); bits(s) != bits(sum) {
		t.Fatalf("%s %s: LossSum %x, reference %x", what, o.Loss.Name(), bits(s), bits(sum))
	}
	if n > 0 {
		if f, want := data.LossSum(o, w, v)/float64(n)+o.Reg.Value(w), oracle.Value(o, w, rows); bits(f) != bits(want) {
			t.Fatalf("%s %s: objective %x, oracle.Value %x", what, o.Loss.Name(), bits(f), bits(want))
		}
	}
	g, wantG := make([]float64, len(w)), make([]float64, len(w))
	s, work := data.GradAndLoss(o, w, v, g)
	wantWork := oracle.AddGradient(o, w, rows, wantG)
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
		rows := data.RandomRows(rng, n, 1+rng.Intn(12), span, nan)
		dim := span
		if trial%2 == 1 {
			dim = 1 + rng.Intn(span) // truncates rows that reach past it
		}
		w := data.RandomModel(rng, dim, nan)
		for _, o := range objs {
			checkLossBody(t, "trial", o, w, rows, rng.Intn(n+1))
		}
	}
}

// FuzzLossRowsMatchesReference draws rows (ascending indices, some past the
// model's length, ±0 and NaN values, empty rows) from a seed and a shape, a
// loss and a regulariser, and a block split, and holds LossRows, LossSum and
// GradAndLoss to oracle.Value and AddGradient bit for bit.
func FuzzLossRowsMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(5), uint8(20), uint8(20), uint8(3), uint8(0))
	f.Add(int64(2), uint8(130), uint8(12), uint8(40), uint8(17), uint8(64), uint8(1))
	f.Add(int64(3), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), uint8(2))
	f.Add(int64(4), uint8(65), uint8(1), uint8(8), uint8(3), uint8(31), uint8(5))
	objs := []glm.Objective{glm.SVM(0), glm.LogReg(0), {Loss: glm.Squared{}, Reg: glm.None{}},
		glm.SVM(0.1), glm.LogReg(0.3), {Loss: glm.Squared{}, Reg: glm.L2{Strength: 0.01}}}
	f.Fuzz(func(t *testing.T, seed int64, n, maxLen, span, dim, cut, obj uint8) {
		rng := rand.New(rand.NewSource(seed))
		rows := data.RandomRows(rng, int(n), int(maxLen), 1+int(span), seed%2 == 0)
		w := data.RandomModel(rng, 1+int(dim), seed%3 == 0)
		checkLossBody(t, "fuzz", objs[int(obj)%len(objs)], w, rows, int(cut)%(int(n)+1))
	})
}
