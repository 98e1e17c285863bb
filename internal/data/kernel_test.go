package data_test

// Slab-kernel bit-identity at the data layer: every kernel entry point must
// produce Float64bits-identical numbers and identical work counts to the
// per-Example reference in glm / opt — including when the model is
// shorter than the feature space (the vec.Dot/vec.Axpy truncation rule) and
// on sub-views. External test package: the reference SGD implementations
// live in opt, which imports data.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/opt"
	"mllibstar/internal/oracle"
	"mllibstar/internal/vec"
)

// customLoss is a loss glm.LossByName cannot return — the squared hinge
// max(0, 1 − y·margin)²/2. The kernel bodies take the loss as a value, so it
// must come out bit-identical to the reference like the built-in three.
type customLoss struct{}

func (customLoss) Name() string { return "custom" }

func (customLoss) Value(margin, y float64) float64 {
	if v := 1 - y*margin; v > 0 {
		return v * v / 2
	}
	return 0
}

func (customLoss) Deriv(margin, y float64) float64 {
	if v := 1 - y*margin; v > 0 {
		return -y * v
	}
	return 0
}

func (l customLoss) ValueDeriv(margin, y float64) (value, deriv float64) {
	return l.Value(margin, y), l.Deriv(margin, y)
}

// kernelObjectives covers every loss glm.LossByName returns plus customLoss,
// each with and without an L2 term (the regularizer only matters for the SGD
// passes).
func kernelObjectives() []struct {
	name string
	obj  glm.Objective
} {
	return []struct {
		name string
		obj  glm.Objective
	}{
		{"hinge", glm.SVM(0)},
		{"hinge-l2", glm.SVM(0.1)},
		{"logistic", glm.LogReg(0)},
		{"logistic-l2", glm.LogReg(0.1)},
		{"squared", glm.Objective{Loss: glm.Squared{}, Reg: glm.None{}}},
		{"squared-l2", glm.Objective{Loss: glm.Squared{}, Reg: glm.L2{Strength: 0.1}}},
		{"custom", glm.Objective{Loss: customLoss{}, Reg: glm.None{}}},
		{"custom-l2", glm.Objective{Loss: customLoss{}, Reg: glm.L2{Strength: 0.1}}},
	}
}

// kernelView builds a dataset with enough columns that a short model
// exercises truncation.
func kernelView(t *testing.T) (data.View, int) {
	t.Helper()
	d := data.Generate(data.Spec{Name: "k", Rows: 4000, Cols: 120, NNZPerRow: 8, Seed: 11, NoiseRate: 0.05})
	return data.ViewOf(d.Examples), d.Features
}

// refLossSum is the per-Example loss sum: the sum oracle.Value divides,
// one vec.Dot margin at a time, folded in row order.
func refLossSum(obj glm.Objective, w []float64, rows []glm.Example) float64 {
	sum := 0.0
	for _, e := range rows {
		sum += obj.Loss.Value(vec.Dot(w, e.X), e.Label)
	}
	return sum
}

// testModel returns a deterministic non-trivial model of length n.
func testModel(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Sin(float64(i)*0.7) * 0.3
	}
	return w
}

func requireBitsEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %x (kernel) != %x (interface)", label, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestKernelAddGradientMatchesInterface(t *testing.T) {
	v, dim := kernelView(t)
	for _, tc := range kernelObjectives() {
		// Full-width model and one shorter than the feature space: the second
		// forces the truncated-prefix path on rows whose tail indices are cut.
		for _, n := range []int{dim, dim / 3} {
			w := testModel(n)
			gk, gi := make([]float64, n), make([]float64, n)
			nnzK := data.AddGradient(tc.obj, w, v, gk)
			nnzI := oracle.AddGradient(tc.obj, w, data.RowsOf(v), gi)
			if nnzK != nnzI {
				t.Errorf("%s dim=%d: work %d (kernel) != %d (interface)", tc.name, n, nnzK, nnzI)
			}
			requireBitsEqual(t, tc.name+" gradient", gk, gi)
		}
	}
}

// TestKernelAddGradientRowsMatchesInterface holds the sampled-row gradient to
// oracle.AddGradient over the gathered rows, bit for bit and in work,
// for sample sizes on both sides of the kernel's warm-ahead chunk (none, one
// row, one chunk less and more a row, a last chunk of one row, thousands),
// through a sub-view at an odd arena offset, with an empty row in the
// sample, and on a model short enough to truncate rows.
func TestKernelAddGradientRowsMatchesInterface(t *testing.T) {
	d := data.Generate(data.Spec{Name: "k", Rows: 16_000, Cols: 120, NNZPerRow: 8, Seed: 11, NoiseRate: 0.05})
	const offset, emptyRow = 101, 6 // view row 6 is in every sample of three rows or more
	d.Examples[offset+emptyRow].X = vec.Sparse{}
	sub := data.ViewOf(d.Examples).Sub(offset, len(d.Examples)-37) // arena rows != view rows
	all := make([]int32, 0, sub.NumRows()/3+1)
	for r := 0; r < sub.NumRows(); r += 3 {
		all = append(all, int32(r))
	}
	chunk := data.RowChunk
	for _, count := range []int{0, 1, 3, chunk - 1, chunk, chunk + 1, 2*chunk + 1, 5000} {
		rows := all[:count]
		gathered := make([]glm.Example, count)
		for j, ri := range rows {
			gathered[j] = data.RowsOf(sub)[ri]
		}
		for _, tc := range kernelObjectives() {
			for _, n := range []int{d.Features, d.Features / 2} {
				w := testModel(n)
				gk, gi := make([]float64, n), make([]float64, n)
				nnzK := data.AddGradientRows(tc.obj, w, sub, rows, gk)
				nnzI := oracle.AddGradient(tc.obj, w, gathered, gi)
				label := fmt.Sprintf("%s, %d rows, dim=%d", tc.name, count, n)
				if nnzK != nnzI {
					t.Errorf("%s: work %d (kernel) != %d (interface)", label, nnzK, nnzI)
				}
				requireBitsEqual(t, label+": row gradient", gk, gi)
			}
		}
	}
}

// TestKernelAddGradientRowsConcurrent runs the sampled-row gradient of two
// partitions' worth of rows at once, as a stage's tasks do, each into its own
// g: under -race this pins that the kernel — its warm-ahead loads included —
// writes no memory the calls share. The results equal the one-at-a-time ones.
func TestKernelAddGradientRowsConcurrent(t *testing.T) {
	v, dim := kernelView(t)
	obj := glm.SVM(0)
	w := testModel(dim)
	halves := []data.View{v.Sub(0, v.NumRows()/2), v.Sub(v.NumRows()/2, v.NumRows())}
	rows := make([]int32, 0, v.NumRows()/4)
	for r := 0; r < v.NumRows()/2; r += 2 {
		rows = append(rows, int32(r))
	}
	var want, got [2][]float64
	for i := range halves {
		want[i], got[i] = make([]float64, dim), make([]float64, dim)
		data.AddGradientRows(obj, w, halves[i], rows, want[i])
	}
	var wg sync.WaitGroup
	for i := range halves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data.AddGradientRows(obj, w, halves[i], rows, got[i])
		}()
	}
	wg.Wait()
	for i := range halves {
		requireBitsEqual(t, fmt.Sprintf("concurrent half %d", i), got[i], want[i])
	}
}

func TestKernelLossSumAndValueMatchInterface(t *testing.T) {
	v, dim := kernelView(t)
	for _, tc := range kernelObjectives() {
		for _, n := range []int{dim, dim / 3} {
			w := testModel(n)
			if k, i := data.LossSum(tc.obj, w, v), refLossSum(tc.obj, w, data.RowsOf(v)); math.Float64bits(k) != math.Float64bits(i) {
				t.Errorf("%s dim=%d: LossSum %x != %x", tc.name, n, math.Float64bits(k), math.Float64bits(i))
			}
			value := data.LossSum(tc.obj, w, v)/float64(v.NumRows()) + tc.obj.Reg.Value(w)
			if k, i := value, oracle.Value(tc.obj, w, data.RowsOf(v)); math.Float64bits(k) != math.Float64bits(i) {
				t.Errorf("%s dim=%d: Value %x != %x", tc.name, n, math.Float64bits(k), math.Float64bits(i))
			}
		}
	}
}

// TestKernelGradAndLossMatchesTwoPasses pins the fused kernel against the
// two-pass interface path it replaces: same gradient bits, same loss-sum
// bits (the body calls loss.ValueDeriv once per row, which for the logistic
// loss shares one exponential between value and derivative).
func TestKernelGradAndLossMatchesTwoPasses(t *testing.T) {
	v, dim := kernelView(t)
	for _, tc := range kernelObjectives() {
		for _, n := range []int{dim, dim / 3} {
			w := testModel(n)
			gk, gi := make([]float64, n), make([]float64, n)
			loss, nnzK := data.GradAndLoss(tc.obj, w, v, gk)
			nnzI := oracle.AddGradient(tc.obj, w, data.RowsOf(v), gi)
			wantLoss := refLossSum(tc.obj, w, data.RowsOf(v))
			if nnzK != nnzI {
				t.Errorf("%s dim=%d: work %d (fused) != %d (two-pass)", tc.name, n, nnzK, nnzI)
			}
			if math.Float64bits(loss) != math.Float64bits(wantLoss) {
				t.Errorf("%s dim=%d: loss %x != %x", tc.name, n,
					math.Float64bits(loss), math.Float64bits(wantLoss))
			}
			requireBitsEqual(t, tc.name+" fused gradient", gk, gi)
		}
	}
}

func TestKernelDerivsIntoMatchesLoop(t *testing.T) {
	v, dim := kernelView(t)
	sub := v.Sub(55, 2555)
	out := make([]float64, sub.NumRows())
	for _, tc := range kernelObjectives() {
		w := testModel(dim / 2)
		data.DerivsInto(tc.obj.Loss, w, sub, out)
		for i, e := range data.RowsOf(sub) {
			want := tc.obj.Loss.Deriv(vec.Dot(w, e.X), e.Label)
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("%s: deriv[%d] = %x != %x", tc.name, i,
					math.Float64bits(out[i]), math.Float64bits(want))
			}
		}
	}
}

func TestKernelSGDPassPlainMatchesLocalPass(t *testing.T) {
	v, dim := kernelView(t)
	sub := v.Sub(9, 3333)
	for _, tc := range kernelObjectives() {
		if tc.obj.Reg.Lambda() != 0 {
			continue // the plain pass is the None-regularizer path
		}
		const stepBase = 17
		sched := opt.InvSqrt(0.5)
		wk := testModel(dim)
		work := data.SGDPassPlain(tc.obj.Loss, wk, sub, sched, stepBase)
		wi := testModel(dim)
		wantWork := oracle.LocalPass(tc.obj, wi, data.RowsOf(sub), sched, stepBase)
		if work != wantWork {
			t.Errorf("%s: work %d (kernel) != %d (interface)", tc.name, work, wantWork)
		}
		requireBitsEqual(t, tc.name+" plain SGD", wk, wi)
	}
}

// TestSGDPassLazyL2MatchesStep pins the lazy-L2 kernel to oracle.LazyL2SGD.Step
// example by example, including the scaled-representation bookkeeping (the
// shrink fold, the post-shrink −η·l'/s update, and the renormalization below
// data.LazyRescaleThreshold).
func TestSGDPassLazyL2MatchesStep(t *testing.T) {
	v, dim := kernelView(t)
	sub := v.Sub(0, 2000)
	for _, tc := range kernelObjectives() {
		lambda := tc.obj.Reg.Lambda()
		if lambda == 0 {
			continue
		}
		const stepBase = 5
		// A large-eta prefix forces the shrink ≤ 0 materialization branch on
		// the first step (1 − η·λ < 0 for η > 10 at λ = 0.1).
		sched := func(step int) float64 {
			if step < stepBase+2 {
				return 11.0
			}
			return 0.5 / math.Sqrt(float64(step+1))
		}
		w0 := testModel(dim)

		vm := vec.Copy(w0)
		sOut, work := data.SGDPassLazyL2(tc.obj.Loss, vm, 1, lambda, sub, sched, stepBase)
		wk := make([]float64, dim)
		vec.ScaleTo(wk, sOut, vm)

		lazy := oracle.NewLazyL2SGD(w0, lambda)
		wantWork := 0
		for i, e := range data.RowsOf(sub) {
			wantWork += lazy.Step(tc.obj.Loss, e, sched(stepBase+i))
		}
		wi := lazy.Weights()

		if work != wantWork {
			t.Errorf("%s: work %d (kernel) != %d (interface)", tc.name, work, wantWork)
		}
		requireBitsEqual(t, tc.name+" lazy L2 SGD", wk, wi)
	}
}

// TestKernelFusedBodiesSmallRanges drives the two bodies that fuse value and
// derivative — gradLoss and derivRows (GradStream pass 1), each two rows'
// margins at a time with an odd last row — over every short range shape: 0
// to 3 rows, starting at even and odd arena rows, across an empty row, with
// a full model and one short enough to truncate rows (one of them to
// nothing).
func TestKernelFusedBodiesSmallRanges(t *testing.T) {
	const dim = 12
	row := func(label float64, ind []int32, val []float64) glm.Example {
		return glm.Example{Label: label, X: vec.Sparse{Ind: ind, Val: val}}
	}
	v := data.ViewOf([]glm.Example{
		row(1, []int32{0, 3, 11}, []float64{0.5, -1.25, 2}),
		row(-1, []int32{1, 2, 4, 5, 9}, []float64{1, 0.75, -0.5, 3, 0.125}),
		row(1, nil, nil), // empty row: margin 0, work 0
		row(-1, []int32{7, 8, 10, 11}, []float64{-2, 0.25, 1.5, 1}), // wholly cut by the short model
		row(1, []int32{2}, []float64{4}),
		row(1, []int32{0, 1, 2, 3, 4, 5, 6}, []float64{1, -1, 1, -1, 1, -1, 1}),
	})
	for _, tc := range kernelObjectives() {
		for _, n := range []int{dim, 5} {
			w := testModel(n)
			for start := 0; start <= 3; start++ {
				for rows := 0; rows <= 3; rows++ {
					sub := v.Sub(start, start+rows)
					want := make([]float64, n+1)
					wantWork := oracle.AddGradient(tc.obj, w, data.RowsOf(sub), want[:n])
					want[n] = refLossSum(tc.obj, w, data.RowsOf(sub))

					got := make([]float64, n+1)
					loss, work := data.GradAndLoss(tc.obj, w, sub, got[:n])
					got[n] = loss
					if work != wantWork {
						t.Errorf("%s dim=%d rows [%d,%d): work %d (fused) != %d (reference)", tc.name, n, start, start+rows, work, wantWork)
					}
					requireBitsEqual(t, tc.name+" GradAndLoss", got, want)

					streamed := make([]float64, n+1)
					gs := data.NewGradStream(tc.obj, w, sub, streamed, true, float64(sub.NNZ())*2)
					gs.Prepare()
					gs.Produce(0, n+1)
					requireBitsEqual(t, tc.name+" GradStream", streamed, want)
				}
			}
		}
	}
}

func TestKernelEmptyView(t *testing.T) {
	obj := glm.SVM(0.1)
	w := testModel(8)
	// The zero View has a nil arena: every entry point must return zero work
	// without touching it.
	var empty data.View
	g := make([]float64, 9)
	if nnz := data.AddGradient(obj, w, empty, g[:8]); nnz != 0 {
		t.Errorf("empty AddGradient work = %d", nnz)
	}
	if nnz := data.AddGradientRows(obj, w, empty, nil, g[:8]); nnz != 0 {
		t.Errorf("empty AddGradientRows work = %d", nnz)
	}
	if sum := data.LossSum(obj, w, empty); sum != 0 {
		t.Errorf("empty LossSum = %v", sum)
	}
	if sum, nnz := data.GradAndLoss(obj, w, empty, g[:8]); sum != 0 || nnz != 0 {
		t.Errorf("empty GradAndLoss = %v, work %d", sum, nnz)
	}
	data.DerivsInto(obj.Loss, w, empty, nil)
	data.LossRows(obj.Loss, w, empty, nil)
	if work := data.SGDPassPlain(obj.Loss, w, empty, opt.Const(0.1), 0); work != 0 {
		t.Errorf("empty SGDPassPlain work = %d", work)
	}
	if s, work := data.SGDPassLazyL2(obj.Loss, w, 0.5, 0.1, empty, opt.Const(0.1), 0); s != 0.5 || work != 0 {
		t.Errorf("empty SGDPassLazyL2 = scale %v, work %d", s, work)
	}
	g[8] = math.NaN()
	gs := data.NewGradStream(obj, w, empty, g, true, 0)
	gs.Prepare()
	gs.Produce(0, len(g))
	if work := gs.PrepareWork() + gs.Work(0, len(g)); work != 0 {
		t.Errorf("empty GradStream work = %v", work)
	}
	requireBitsEqual(t, "gradient and loss slot after empty passes", g, make([]float64, 9))
	// The L2 pass over no rows still materializes the model once.
	if work := opt.LocalPassView(obj, w, empty, opt.Const(0.1), 0, nil); work != len(w) {
		t.Errorf("empty L2 LocalPassView work = %d, want len(w) = %d", work, len(w))
	}
	requireBitsEqual(t, "model after empty passes", w, testModel(8))
	// An empty sub-view of a real arena behaves the same (zero rows, zero
	// work).
	d := data.Generate(data.Spec{Name: "k", Rows: 10, Cols: 8, NNZPerRow: 2, Seed: 1})
	sub := data.ViewOf(d.Examples).Sub(4, 4)
	if nnz := data.AddGradient(obj, w, sub, make([]float64, 8)); nnz != 0 {
		t.Errorf("empty sub-view AddGradient work = %d", nnz)
	}
}

// TestKernelEntryPointsZeroAlloc pins the zero-allocation contract of the
// kernel package itself: every slab entry point writes only into
// caller-owned buffers.
func TestKernelEntryPointsZeroAlloc(t *testing.T) {
	d := data.Generate(data.Spec{Name: "k", Rows: 500, Cols: 60, NNZPerRow: 6, Seed: 3})
	v := data.ViewOf(d.Examples)
	obj := glm.SVM(0.1)
	w := testModel(d.Features)
	g := make([]float64, d.Features)
	vm := vec.Copy(w)
	derivs := make([]float64, v.NumRows())
	rows := []int32{0, 3, 7, 11, 200, 499}
	sched := opt.InvSqrt(0.5)
	for name, fn := range map[string]func(){
		"AddGradient":     func() { data.AddGradient(obj, w, v, g) },
		"AddGradientRows": func() { data.AddGradientRows(obj, w, v, rows, g) },
		"LossRows":        func() { data.LossRows(obj.Loss, w, v, derivs) },
		"LossSum":         func() { data.LossSum(obj, w, v) },
		"DerivsInto":      func() { data.DerivsInto(obj.Loss, w, v, derivs) },
		"SGDPassPlain":    func() { data.SGDPassPlain(obj.Loss, w, v, sched, 0) },
		"SGDPassLazyL2":   func() { data.SGDPassLazyL2(obj.Loss, vm, 1, 0.1, v, sched, 0) },
	} {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Errorf("%s: %g allocs/op, want 0", name, allocs)
		}
	}
}
