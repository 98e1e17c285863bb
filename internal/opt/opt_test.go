package opt

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/oracle"
	"mllibstar/internal/vec"
)

// viewOf packs rows for the View-taking kernels; the tests below name their
// example slices data.
func viewOf(rows []glm.Example) data.View { return data.ViewOf(rows) }

// toyData generates a linearly separable-ish classification problem with a
// planted model, for convergence tests.
func toyData(rng *rand.Rand, n, dim, nnz int) ([]glm.Example, []float64) {
	truth := make([]float64, dim)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}
	data := make([]glm.Example, n)
	for i := range data {
		m := map[int32]float64{}
		for j := 0; j < nnz; j++ {
			m[int32(rng.Intn(dim))] = rng.NormFloat64()
		}
		x := vec.SparseFromMap(m)
		y := 1.0
		if vec.Dot(truth, x) < 0 {
			y = -1
		}
		data[i] = glm.Example{Label: y, X: x}
	}
	return data, truth
}

// synthBatch builds a random sparse batch over dim features.
func synthBatch(rng *rand.Rand, n, dim int) []glm.Example {
	out := make([]glm.Example, n)
	for i := range out {
		var ind []int32
		var val []float64
		for ix := 0; ix < dim; ix++ {
			if rng.Float64() < 0.25 {
				ind = append(ind, int32(ix))
				val = append(val, rng.NormFloat64())
			}
		}
		label := 1.0
		if rng.Float64() < 0.5 {
			label = -1
		}
		out[i] = glm.Example{X: vec.Sparse{Ind: ind, Val: val}, Label: label}
	}
	return out
}

func TestMGDStepDecreasesObjectiveFullBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data, _ := toyData(rng, 200, 20, 5)
	for _, obj := range []glm.Objective{glm.SVM(0), glm.SVM(0.1), glm.LogReg(0.01)} {
		w := make([]float64, 20)
		scratch := &MGDScratch{}
		before := oracle.Value(obj, w, data)
		for i := 0; i < 50; i++ {
			MGDStepView(obj, w, viewOf(data), 0.05, scratch)
		}
		after := oracle.Value(obj, w, data)
		if after >= before {
			t.Errorf("%s+%s: objective %g -> %g did not decrease", obj.Loss.Name(), obj.Reg.Name(), before, after)
		}
	}
}

func TestMGDStepEmptyBatchIsNoop(t *testing.T) {
	w := []float64{1, 2}
	if work := MGDStepView(glm.SVM(0.1), w, data.View{}, 0.1, nil); work != 0 || w[0] != 1 {
		t.Error("empty batch changed the model")
	}
}

func TestMGDStepWorkAccounting(t *testing.T) {
	data := []glm.Example{
		{Label: 1, X: vec.SparseFromMap(map[int32]float64{0: 1, 1: 1})},
		{Label: -1, X: vec.SparseFromMap(map[int32]float64{2: 1})},
	}
	w := make([]float64, 4)
	if work := MGDStepView(glm.SVM(0), w, viewOf(data), 0.1, nil); work != 3 {
		t.Errorf("work = %d, want 3 (nnz only)", work)
	}
	vec.Zero(w)
	if work := MGDStepView(glm.SVM(0.5), w, viewOf(data), 0.1, nil); work != 3+4 {
		t.Errorf("work = %d, want 7 (nnz + dense reg sweep)", work)
	}
}

func TestLazyL2MatchesEager(t *testing.T) {
	// Property: the lazily scaled L2 pass produces the same weights as the
	// eager per-example update, for random data, any lambda/eta in range.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const dim = 15
		data, _ := toyData(rng, 40, dim, 4)
		lambda := rng.Float64() * 0.5
		eta := 0.01 + rng.Float64()*0.2
		obj := glm.SVM(lambda)

		eager := make([]float64, dim)
		for i := range eager {
			eager[i] = rng.NormFloat64() * 0.1
		}
		got := vec.Copy(eager)
		LocalPassView(obj, got, viewOf(data), Const(eta), 0, nil)
		for _, e := range data {
			oracle.EagerSGDStep(obj, eager, e, eta)
		}
		for i := range eager {
			if math.Abs(got[i]-eager[i]) > 1e-9*(1+math.Abs(eager[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLazyL2RescaleKeepsSemantics(t *testing.T) {
	// Drive s below the rescale threshold and confirm the weights survive.
	lambda, eta := 0.5, 0.9 // shrink = 0.55 per step: s decays fast
	got := []float64{1, 1}
	eager := vec.Copy(got)
	obj := glm.SVM(lambda)
	e := glm.Example{Label: 1, X: vec.SparseFromMap(map[int32]float64{0: 0.5})}
	rows := make([]glm.Example, 100)
	for i := range rows {
		rows[i] = e
		oracle.EagerSGDStep(obj, eager, e, eta)
	}
	LocalPassView(obj, got, viewOf(rows), Const(eta), 0, nil)
	for i := range eager {
		if math.Abs(got[i]-eager[i]) > 1e-9 {
			t.Fatalf("weights diverged: lazy %v vs eager %v", got, eager)
		}
	}
}

func TestLazyL2ShrinkOverflow(t *testing.T) {
	// eta*lambda >= 1 makes the shrink factor non-positive; the pass must
	// clamp rather than flip the model's sign.
	w := []float64{2, 2}
	// Margin is +2 but the label is -1, so the hinge deriv is +1.
	row := glm.Example{Label: -1, X: vec.SparseFromMap(map[int32]float64{0: 1})}
	LocalPassView(glm.SVM(2), w, viewOf([]glm.Example{row}), Const(1), 0, nil)
	// shrink = 1-2 = -1 clamps to 0: model zeroed, then the gradient step
	// w[0] = 0 - η·d·x = -1 applied on top.
	if w[1] != 0 {
		t.Errorf("untouched coord = %g, want 0", w[1])
	}
	if w[0] != -1 {
		t.Errorf("touched coord = %g, want -1", w[0])
	}
}

func TestLazyL2Reset(t *testing.T) {
	// A scratch recycled across models of another width and another λ
	// starts each pass from the model it is given: every pass equals the
	// same pass on a fresh scratch.
	rng := rand.New(rand.NewSource(5))
	sc := NewPassScratch()
	for _, tc := range []struct {
		dim    int
		lambda float64
	}{{10, 0.5}, {10, 0.01}, {25, 0.2}, {10, 0.3}} {
		rows, _ := toyData(rng, 30, tc.dim, 3)
		obj := glm.SVM(tc.lambda)
		w0 := make([]float64, tc.dim)
		for j := range w0 {
			w0[j] = rng.NormFloat64()
		}
		got, want := vec.Copy(w0), vec.Copy(w0)
		LocalPassView(obj, got, viewOf(rows), Const(0.3), 0, sc)
		LocalPassView(obj, want, viewOf(rows), Const(0.3), 0, NewPassScratch())
		requireSameModel(t, "recycled scratch", got, want)
	}
}

func TestNegativeLambdaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	LocalPassView(glm.SVM(-0.1), []float64{1}, data.View{}, Const(0.1), 0, nil)
}

// halfL2 is a Regularizer LocalPassView has no body for.
type halfL2 struct{ glm.L2 }

// TestForeignRegularizerPanics: a regulariser other than None and L2 panics,
// naming its type, rather than training as one of them.
func TestForeignRegularizerPanics(t *testing.T) {
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "opt.halfL2") {
			t.Fatalf("panic = %q, want one naming opt.halfL2", r)
		}
	}()
	obj := glm.Objective{Loss: glm.Hinge{}, Reg: halfL2{glm.L2{Strength: 0.1}}}
	LocalPassView(obj, []float64{1}, data.View{}, Const(0.1), 0, nil)
}

func TestLocalPassConvergesAllRegularizers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data, _ := toyData(rng, 300, 25, 5)
	for _, obj := range []glm.Objective{glm.SVM(0), glm.SVM(0.1)} {
		w := make([]float64, 25)
		before := oracle.Value(obj, w, data)
		step := 0
		for ep := 0; ep < 5; ep++ {
			LocalPassView(obj, w, viewOf(data), InvSqrt(0.5), step, nil)
			step += len(data)
		}
		after := oracle.Value(obj, w, data)
		if after >= before*0.9 {
			t.Errorf("%s: LocalPassView did not reduce objective: %g -> %g", obj.Reg.Name(), before, after)
		}
	}
}

func TestLocalPassL2UsesLazyPath(t *testing.T) {
	// The lazy path's work should be ~nnz-scale, far below the eager
	// dim-per-example cost for a high-dimensional model.
	rng := rand.New(rand.NewSource(3))
	const dim = 10000
	data, _ := toyData(rng, 50, dim, 5)
	obj := glm.SVM(0.1)
	w := make([]float64, dim)
	work := LocalPassView(obj, w, viewOf(data), Const(0.1), 0, nil)
	eagerWork := 50 * (dim + 5)
	if work > eagerWork/10 {
		t.Errorf("lazy work = %d, close to eager %d — lazy path not taken?", work, eagerWork)
	}
}

// TestLocalPassWithScratchBitIdentical asserts the scratch-reusing view
// pass matches the per-example reference bit for bit across repeated passes
// (the scratch carries state between calls and must be fully reset).
func TestLocalPassWithScratchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	obj := glm.Objective{Loss: glm.Logistic{}, Reg: glm.L2{Strength: 0.03}}
	dim := 20
	data := synthBatch(rng, 40, dim)
	v := viewOf(data)
	wRef := make([]float64, dim)
	wScratch := make([]float64, dim)
	sc := NewPassScratch()
	for pass := 0; pass < 5; pass++ {
		workR := oracle.LocalPass(obj, wRef, data, Const(0.1), 0)
		workS := LocalPassView(obj, wScratch, v, Const(0.1), 0, sc)
		if workR != workS {
			t.Fatalf("pass %d: work %d != %d", pass, workS, workR)
		}
		requireSameModel(t, "pass", wScratch, wRef)
	}
}

func TestLocalMGDEpochStepCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data, _ := toyData(rng, 10, 5, 2)
	w := make([]float64, 5)
	_, steps := LocalMGDEpochView(glm.SVM(0), w, viewOf(data), 3, Const(0.1), 0, nil)
	if steps != 4 { // 3+3+3+1
		t.Errorf("steps = %d, want 4", steps)
	}
	_, steps = LocalMGDEpochView(glm.SVM(0), w, viewOf(data), 0, Const(0.1), 0, nil)
	if steps != 1 {
		t.Errorf("full-batch steps = %d, want 1", steps)
	}
}

func TestReferenceOptimumBelowInitialLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data, _ := toyData(rng, 200, 10, 3)
	obj := glm.SVM(0.1)
	init := oracle.Value(obj, make([]float64, 10), data)
	ref := ReferenceOptimumOn(obj, viewOf(data), viewOf(data), 10, 20)
	if ref >= init {
		t.Errorf("reference optimum %g not below initial %g", ref, init)
	}
}

func TestSchedules(t *testing.T) {
	c := Const(0.5)
	if c(0) != 0.5 || c(100) != 0.5 {
		t.Error("Const wrong")
	}
	s := InvSqrt(1)
	if s(0) != 1 || math.Abs(s(3)-0.5) > 1e-12 {
		t.Errorf("InvSqrt wrong: %g %g", s(0), s(3))
	}
}

func BenchmarkLocalPassSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	data, _ := toyData(rng, 1000, 10000, 20)
	v := viewOf(data)
	obj := glm.SVM(0.1)
	w := make([]float64, 10000)
	sc := NewPassScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalPassView(obj, w, v, Const(0.01), 0, sc)
	}
}

func TestAdaGradConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data, _ := toyData(rng, 500, 40, 6)
	obj := glm.SVM(0)
	ada := NewAdaGrad(40, 0.5)
	w := make([]float64, 40)
	before := oracle.Value(obj, w, data)
	for ep := 0; ep < 5; ep++ {
		ada.Pass(obj, w, viewOf(data))
	}
	after := oracle.Value(obj, w, data)
	if after >= before*0.5 {
		t.Errorf("AdaGrad made little progress: %g -> %g", before, after)
	}
}

func TestAdaGradAdaptsPerCoordinate(t *testing.T) {
	// A hot feature must accumulate much more squared gradient (and hence
	// get smaller steps) than a rare one.
	obj := glm.SVM(0)
	ada := NewAdaGrad(2, 0.1)
	w := make([]float64, 2)
	hot := glm.Example{Label: 1, X: vec.SparseFromMap(map[int32]float64{0: 1})}
	rare := glm.Example{Label: 1, X: vec.SparseFromMap(map[int32]float64{1: 1})}
	for i := 0; i < 50; i++ {
		ada.Step(obj, w, hot)
	}
	ada.Step(obj, w, rare)
	acc := ada.Accumulators()
	if acc[0] <= acc[1] {
		t.Errorf("hot accumulator %g not above rare %g", acc[0], acc[1])
	}
}

func TestAdaGradWorkIsSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const dim = 5000
	data, _ := toyData(rng, 50, dim, 5)
	ada := NewAdaGrad(dim, 0.1)
	w := make([]float64, dim)
	work := ada.Pass(glm.SVM(0.1), w, viewOf(data))
	if work > 50*10 {
		t.Errorf("work = %d, want ~nnz-scale (<=500)", work)
	}
}

func TestAdaGradRejectsBadEta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewAdaGrad(4, 0)
}

func TestSVRGConvergesWithConstantStep(t *testing.T) {
	// On a strongly convex objective SVRG converges with a constant step
	// where plain constant-step SGD stalls at a noise floor.
	rng := rand.New(rand.NewSource(11))
	data, _ := toyData(rng, 600, 30, 5)
	obj := glm.LogReg(0.05)
	dim := 30

	svrg := NewSVRG(dim, 0.2)
	w := make([]float64, dim)
	for outer := 0; outer < 8; outer++ {
		mu := oracle.Snapshot(obj, w, data)
		svrg.SetSnapshot(w, mu)
		svrg.Pass(obj, w, viewOf(data))
	}
	svrgObj := oracle.Value(obj, w, data)

	// Long sequential reference.
	ref := ReferenceOptimumOn(obj, viewOf(data), viewOf(data), dim, 40)
	if svrgObj > ref+0.005 {
		t.Errorf("SVRG objective %g, reference %g", svrgObj, ref)
	}
}

func TestSVRGCorrectionIsUnbiased(t *testing.T) {
	// At the snapshot itself (w == w̃), each corrected step direction is
	// exactly μ + ∇Ω(w): the stochastic part cancels.
	rng := rand.New(rand.NewSource(12))
	data, _ := toyData(rng, 50, 10, 3)
	obj := glm.LogReg(0.1)
	w := make([]float64, 10)
	for i := range w {
		w[i] = rng.NormFloat64() * 0.1
	}
	svrg := NewSVRG(10, 0.1)
	mu := oracle.Snapshot(obj, w, data)
	svrg.SetSnapshot(w, mu)
	before := vec.Copy(w)
	svrg.Step(obj, w, data[0])
	// Expected: w -= eta*(mu + regGrad(before)).
	for j := range w {
		want := before[j] - 0.1*(svrg.Mu()[j]+obj.Reg.DerivAt(before[j]))
		if math.Abs(w[j]-want) > 1e-9 {
			t.Fatalf("coord %d: got %g want %g", j, w[j], want)
		}
	}
}

func TestSVRGWorkAccounting(t *testing.T) {
	data := []glm.Example{
		{Label: 1, X: vec.SparseFromMap(map[int32]float64{0: 1, 2: 1})},
	}
	svrg := NewSVRG(5, 0.1)
	mu := oracle.Snapshot(glm.SVM(0), make([]float64, 5), data)
	svrg.SetSnapshot(make([]float64, 5), mu)
	w := make([]float64, 5)
	if work := svrg.Step(glm.SVM(0), w, data[0]); work != 2*2+5 {
		t.Errorf("work = %d, want 9", work)
	}
}
