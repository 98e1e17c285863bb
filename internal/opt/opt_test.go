package opt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

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
		scratch := make([]float64, 20)
		before := obj.Value(w, data)
		for i := 0; i < 50; i++ {
			MGDStep(obj, w, data, 0.05, scratch)
		}
		after := obj.Value(w, data)
		if after >= before {
			t.Errorf("%s+%s: objective %g -> %g did not decrease", obj.Loss.Name(), obj.Reg.Name(), before, after)
		}
	}
}

func TestMGDStepEmptyBatchIsNoop(t *testing.T) {
	w := []float64{1, 2}
	if work := MGDStep(glm.SVM(0.1), w, nil, 0.1, nil); work != 0 || w[0] != 1 {
		t.Error("empty batch changed the model")
	}
}

func TestMGDStepWorkAccounting(t *testing.T) {
	data := []glm.Example{
		{Label: 1, X: vec.SparseFromMap(map[int32]float64{0: 1, 1: 1})},
		{Label: -1, X: vec.SparseFromMap(map[int32]float64{2: 1})},
	}
	w := make([]float64, 4)
	if work := MGDStep(glm.SVM(0), w, data, 0.1, nil); work != 3 {
		t.Errorf("work = %d, want 3 (nnz only)", work)
	}
	vec.Zero(w)
	if work := MGDStep(glm.SVM(0.5), w, data, 0.1, nil); work != 3+4 {
		t.Errorf("work = %d, want 7 (nnz + dense reg sweep)", work)
	}
}

func TestLazyL2MatchesEager(t *testing.T) {
	// Property: the lazily-scaled L2 SGD produces the same weights as the
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
		lazy := NewLazyL2SGD(eager, lambda)
		for _, e := range data {
			EagerSGDStep(obj, eager, e, eta)
			lazy.Step(obj.Loss, e, eta)
		}
		got := lazy.Weights()
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
	w0 := []float64{1, 1}
	lazy := NewLazyL2SGD(w0, lambda)
	eager := vec.Copy(w0)
	obj := glm.SVM(lambda)
	e := glm.Example{Label: 1, X: vec.SparseFromMap(map[int32]float64{0: 0.5})}
	for i := 0; i < 100; i++ {
		lazy.Step(obj.Loss, e, eta)
		EagerSGDStep(obj, eager, e, eta)
	}
	got := lazy.Weights()
	for i := range eager {
		if math.Abs(got[i]-eager[i]) > 1e-9 {
			t.Fatalf("weights diverged: lazy %v vs eager %v", got, eager)
		}
	}
}

func TestLazyL2ShrinkOverflow(t *testing.T) {
	// eta*lambda >= 1 makes the shrink factor non-positive; the updater must
	// clamp rather than flip the model's sign.
	lazy := NewLazyL2SGD([]float64{2, 2}, 2)
	// Margin is +2 but the label is -1, so the hinge deriv is +1.
	lazy.Step(glm.Hinge{}, glm.Example{Label: -1, X: vec.SparseFromMap(map[int32]float64{0: 1})}, 1)
	w := lazy.Weights()
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
	lazy := NewLazyL2SGD([]float64{1, 2}, 0.1)
	lazy.Step(glm.Hinge{}, glm.Example{Label: 1, X: vec.SparseFromMap(map[int32]float64{0: 1})}, 0.5)
	lazy.Reset([]float64{5, 6})
	got := lazy.Weights()
	if got[0] != 5 || got[1] != 6 {
		t.Errorf("after Reset = %v", got)
	}
}

func TestNegativeLambdaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewLazyL2SGD([]float64{1}, -0.1)
}

func TestLocalPassConvergesAllRegularizers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data, _ := toyData(rng, 300, 25, 5)
	for _, obj := range []glm.Objective{glm.SVM(0), glm.SVM(0.1), {Loss: glm.Hinge{}, Reg: glm.L1{Strength: 0.001}}} {
		w := make([]float64, 25)
		before := obj.Value(w, data)
		step := 0
		for ep := 0; ep < 5; ep++ {
			LocalPass(obj, w, data, InvSqrt(0.5), step)
			step += len(data)
		}
		after := obj.Value(w, data)
		if after >= before*0.9 {
			t.Errorf("%s: LocalPass did not reduce objective: %g -> %g", obj.Reg.Name(), before, after)
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
	work := LocalPass(obj, w, data, Const(0.1), 0)
	eagerWork := 50 * (dim + 5)
	if work > eagerWork/10 {
		t.Errorf("lazy work = %d, close to eager %d — lazy path not taken?", work, eagerWork)
	}
}

// TestLocalPassWithScratchBitIdentical asserts the scratch-reusing pass
// matches the allocating one across repeated passes (the scratch carries
// state between calls and must be fully reset).
func TestLocalPassWithScratchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	obj := glm.Objective{Loss: glm.Logistic{}, Reg: glm.L2{Strength: 0.03}}
	dim := 20
	data := synthBatch(rng, 40, dim)
	wPlain := make([]float64, dim)
	wScratch := make([]float64, dim)
	sc := NewPassScratch()
	for pass := 0; pass < 5; pass++ {
		workP := LocalPass(obj, wPlain, data, Const(0.1), 0)
		workS := LocalPassWith(obj, wScratch, data, Const(0.1), 0, sc)
		if workP != workS {
			t.Fatalf("pass %d: work %d != %d", pass, workS, workP)
		}
		for j := range wPlain {
			if math.Float64bits(wPlain[j]) != math.Float64bits(wScratch[j]) {
				t.Fatalf("pass %d: w[%d] differs", pass, j)
			}
		}
	}
}

func TestLocalMGDEpochStepCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data, _ := toyData(rng, 10, 5, 2)
	w := make([]float64, 5)
	_, steps := LocalMGDEpoch(glm.SVM(0), w, data, 3, Const(0.1), 0, nil)
	if steps != 4 { // 3+3+3+1
		t.Errorf("steps = %d, want 4", steps)
	}
	_, steps = LocalMGDEpoch(glm.SVM(0), w, data, 0, Const(0.1), 0, nil)
	if steps != 1 {
		t.Errorf("full-batch steps = %d, want 1", steps)
	}
}

func TestReferenceOptimumBelowInitialLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data, _ := toyData(rng, 200, 10, 3)
	obj := glm.SVM(0.1)
	init := obj.Value(make([]float64, 10), data)
	ref := ReferenceOptimum(obj, data, 10, 20)
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
	obj := glm.SVM(0.1)
	w := make([]float64, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalPass(obj, w, data, Const(0.01), 0)
	}
}

func TestAdaGradConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data, _ := toyData(rng, 500, 40, 6)
	obj := glm.SVM(0)
	ada := NewAdaGrad(40, 0.5)
	w := make([]float64, 40)
	before := obj.Value(w, data)
	for ep := 0; ep < 5; ep++ {
		ada.Pass(obj, w, data)
	}
	after := obj.Value(w, data)
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
	work := ada.Pass(glm.SVM(0.1), w, data)
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
		svrg.Snapshot(obj, w, data)
		svrg.Pass(obj, w, data)
	}
	svrgObj := obj.Value(w, data)

	// Long sequential reference.
	ref := ReferenceOptimum(obj, data, dim, 40)
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
	svrg.Snapshot(obj, w, data)
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
	svrg.Snapshot(glm.SVM(0), make([]float64, 5), data)
	w := make([]float64, 5)
	if work := svrg.Step(glm.SVM(0), w, data[0]); work != 2*2+5 {
		t.Errorf("work = %d, want 9", work)
	}
}
