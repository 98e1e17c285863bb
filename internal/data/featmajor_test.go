package data_test

// Gradient-stream bit-identity: the two-pass feature-major producer must
// reproduce the per-Example reference (glm.Objective.AddGradient / LossSum)
// Float64bits-exactly — for every loss of kernelObjectives, under model
// truncation, on sub-views, and for any block partitioning of the
// coordinate range — and the block pass (Produce) must not allocate.

import (
	"math"
	"testing"

	"mllibstar/internal/data"
	"mllibstar/internal/glm"
)

// produceAll drives the stream over [0, len(g)) in blocks of width blk,
// exercising out-of-order block production when reverse is set.
func produceAll(gs *data.GradStream, n, blk int, reverse bool) {
	var ranges [][2]int
	for lo := 0; lo < n; lo += blk {
		hi := lo + blk
		if hi > n {
			hi = n
		}
		ranges = append(ranges, [2]int{lo, hi})
	}
	if reverse {
		for i, j := 0, len(ranges)-1; i < j; i, j = i+1, j-1 {
			ranges[i], ranges[j] = ranges[j], ranges[i]
		}
	}
	for _, r := range ranges {
		gs.Produce(r[0], r[1])
	}
}

func TestGradStreamMatchesGradAndLoss(t *testing.T) {
	v, dim := kernelView(t)
	for _, tc := range kernelObjectives() {
		// Full-width model and one shorter than the feature space: the
		// second forces the truncation path, whose columns the stream
		// must skip entirely.
		for _, n := range []int{dim, dim / 3} {
			w := testModel(n)
			want := make([]float64, n+1)
			tc.obj.AddGradient(w, v.Examples(), want[:n])
			want[n] = tc.obj.LossSum(w, v.Examples())
			for _, blk := range []int{1, 7, n/2 + 1, n + 1} {
				for _, reverse := range []bool{false, true} {
					got := make([]float64, n+1)
					gs := data.NewGradStream(tc.obj, w, v, got, true, float64(v.NNZ())*2)
					gs.Prepare()
					produceAll(gs, n+1, blk, reverse)
					requireBitsEqual(t, tc.name, got, want)
				}
			}
		}
	}
}

func TestGradStreamMatchesAddGradient(t *testing.T) {
	v, dim := kernelView(t)
	for _, tc := range kernelObjectives() {
		w := testModel(dim)
		want := make([]float64, dim)
		tc.obj.AddGradient(w, v.Examples(), want)
		got := make([]float64, dim)
		gs := data.NewGradStream(tc.obj, w, v, got, false, float64(v.NNZ()))
		gs.Prepare()
		produceAll(gs, dim, dim/5+1, false)
		requireBitsEqual(t, tc.name, got, want)
	}
}

func TestGradStreamSubViewAndEmpty(t *testing.T) {
	v, dim := kernelView(t)
	w := testModel(dim)
	obj := glm.LogReg(0.01)
	sub := v.Sub(13, v.NumRows()-17)
	want := make([]float64, dim+1)
	wantLoss, _ := data.GradAndLoss(obj, w, sub, want[:dim])
	want[dim] = wantLoss
	got := make([]float64, dim+1)
	gs := data.NewGradStream(obj, w, sub, got, true, float64(sub.NNZ())*2)
	gs.Prepare()
	produceAll(gs, dim+1, 29, true)
	requireBitsEqual(t, "subview", got, want)

	// Empty view: gradient stays zero, loss slot is written (to zero).
	empty := v.Sub(5, 5)
	eg := make([]float64, dim+1)
	eg[dim] = math.NaN()
	egs := data.NewGradStream(obj, w, empty, eg, true, 0)
	egs.Prepare()
	produceAll(egs, dim+1, 50, false)
	requireBitsEqual(t, "empty", eg, make([]float64, dim+1))
}

func TestGradStreamWorkIsStructural(t *testing.T) {
	v, dim := kernelView(t)
	w := testModel(dim)
	obj := glm.LogReg(0)
	total := float64(v.NNZ()) * 2
	g := make([]float64, dim+1)
	gs := data.NewGradStream(obj, w, v, g, true, total)
	if got := gs.PrepareWork(); got != total/2 {
		t.Fatalf("PrepareWork = %v, want %v", got, total/2)
	}
	// Pass-2 charges must cover the other half exactly when summed over a
	// partition of the full range, however it is cut.
	sum := 0.0
	for lo := 0; lo < dim+1; lo += 97 {
		hi := lo + 97
		if hi > dim+1 {
			hi = dim + 1
		}
		sum += gs.Work(lo, hi)
	}
	if math.Abs(sum-total/2) > 1e-6*total {
		t.Fatalf("sum of block Work = %v, want %v", sum, total/2)
	}
	// And must depend on the sparsity pattern only: another loss and model
	// over the same rows charge the same.
	gs2 := data.NewGradStream(glm.SVM(0.1), make([]float64, dim), v, make([]float64, dim+1), true, total)
	if gs.Work(3, 41) != gs2.Work(3, 41) || gs.PrepareWork() != gs2.PrepareWork() {
		t.Fatal("Work/PrepareWork depend on the loss or the model values")
	}
}

func TestGradStreamProduceZeroAllocs(t *testing.T) {
	v, dim := kernelView(t)
	w := testModel(dim)
	g := make([]float64, dim+1)
	gs := data.NewGradStream(glm.LogReg(0.01), w, v, g, true, float64(v.NNZ())*2)
	gs.Prepare()
	blk := dim/8 + 1
	if n := testing.AllocsPerRun(10, func() {
		for i := range g {
			g[i] = 0
		}
		for lo := 0; lo < dim+1; lo += blk {
			hi := lo + blk
			if hi > dim+1 {
				hi = dim + 1
			}
			gs.Produce(lo, hi)
		}
	}); n != 0 {
		t.Fatalf("Produce block pass allocates %v objects per run; want 0", n)
	}
}
