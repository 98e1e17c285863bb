package opt

// The view forms the trainers run (slab kernels) against the []glm.Example
// references in opt.go: bitwise-equal model, equal work, equal step count.

import (
	"math"
	"math/rand"
	"testing"

	"mllibstar/internal/data"
	"mllibstar/internal/glm"
)

// viewObjectives is every slab-kernel loss with and without a regularizer
// sweep.
var viewObjectives = []glm.Objective{
	glm.SVM(0),
	glm.SVM(0.1),
	glm.LogReg(0),
	glm.LogReg(0.1),
	{Loss: glm.Squared{}, Reg: glm.None{}},
	{Loss: glm.Squared{}, Reg: glm.L2{Strength: 0.1}},
}

func requireSameModel(t *testing.T, label string, view, ref []float64) {
	t.Helper()
	for j := range ref {
		if math.Float64bits(view[j]) != math.Float64bits(ref[j]) {
			t.Fatalf("%s: w[%d] = %x (view) != %x (reference)", label, j,
				math.Float64bits(view[j]), math.Float64bits(ref[j]))
		}
	}
}

// TestMGDStepViewBitIdentical runs many random batches through both forms,
// at full model width and with a model shorter than the feature space (the
// truncation rule of vec.Dot / vec.Axpy).
func TestMGDStepViewBitIdentical(t *testing.T) {
	const dim = 30
	rng := rand.New(rand.NewSource(11))
	for oi, obj := range viewObjectives {
		for _, n := range []int{dim, dim / 3} {
			wRef, wView := make([]float64, n), make([]float64, n)
			for j := range wRef {
				wRef[j] = rng.NormFloat64()
				wView[j] = wRef[j]
			}
			scratchRef, scratchView := make([]float64, n), &MGDScratch{}
			for step := 0; step < 50; step++ {
				batch := synthBatch(rng, 1+rng.Intn(8), dim)
				eta := 0.1 / math.Sqrt(1+float64(step))
				workRef := MGDStep(obj, wRef, batch, eta, scratchRef)
				workView := MGDStepView(obj, wView, data.ViewOf(batch), eta, scratchView)
				if workRef != workView {
					t.Fatalf("obj %d n=%d step %d: work %d (view) != %d (reference)", oi, n, step, workView, workRef)
				}
				requireSameModel(t, obj.Loss.Name(), wView, wRef)
			}
		}
	}
}

// TestLocalMGDEpochViewMatchesDense covers the batching: sub-views of one
// arena against slices of one example list, last batch short.
func TestLocalMGDEpochViewMatchesDense(t *testing.T) {
	const dim = 24
	rng := rand.New(rand.NewSource(12))
	examples := synthBatch(rng, 57, dim)
	v := data.ViewOf(examples)
	for oi, obj := range viewObjectives {
		for _, n := range []int{dim, dim / 3} {
			wRef, wView := make([]float64, n), make([]float64, n)
			workRef, stepsRef := LocalMGDEpoch(obj, wRef, examples, 10, InvSqrt(0.05), 3, make([]float64, n))
			workView, stepsView := LocalMGDEpochView(obj, wView, v, 10, InvSqrt(0.05), 3, nil)
			if workRef != workView || stepsRef != stepsView {
				t.Fatalf("obj %d n=%d: view (work=%d steps=%d) != reference (work=%d steps=%d)",
					oi, n, workView, stepsView, workRef, stepsRef)
			}
			requireSameModel(t, obj.Loss.Name(), wView, wRef)
		}
	}
}
