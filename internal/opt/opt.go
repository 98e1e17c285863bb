// Package opt implements the sequential optimization kernels that every
// distributed trainer in this repository builds on: mini-batch gradient
// descent (Algorithm 1 of the MLlib* paper), per-example SGD, and Bottou's
// lazily-scaled representation that makes per-example L2 updates cost
// O(nnz) instead of O(dim) — the "threshold-based, lazy method" the paper
// uses for SendModel with nonzero regularization.
//
// Each kernel reports the amount of work it performed in "nonzeros touched"
// units, which the cluster simulation converts to virtual compute time.
package opt

import (
	"math"

	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// Schedule maps a 0-based step number to a learning rate.
type Schedule func(step int) float64

// Const returns a constant learning-rate schedule.
func Const(eta float64) Schedule { return func(int) float64 { return eta } }

// InvSqrt returns the classic eta/sqrt(1+t) decay schedule.
func InvSqrt(eta float64) Schedule {
	return func(step int) float64 { return eta / math.Sqrt(1+float64(step)) }
}

// EagerSGDStep performs one per-example SGD update with the regularization
// gradient applied densely (the naive approach the lazy representation
// replaces). Exposed for the lazy-vs-eager ablation. Returns work in
// nonzeros touched.
func EagerSGDStep(obj glm.Objective, w []float64, e glm.Example, eta float64) (work int) {
	d := obj.Loss.Deriv(vec.Dot(w, e.X), e.Label)
	work = e.X.NNZ()
	// Regularization first so the whole step is w ← w − η(d·x + ∇Ω(w)),
	// everything evaluated at the pre-step model.
	if _, isNone := obj.Reg.(glm.None); !isNone {
		for j := range w {
			w[j] -= eta * obj.Reg.DerivAt(w[j])
		}
		work += len(w)
	}
	if d != 0 {
		vec.Axpy(-eta*d, e.X, w)
	}
	return work
}

// PassScratch holds the reusable buffer of LocalPassView: with an L2 term
// every pass runs on a lazily scaled shadow of the model, and recycling it
// across steps removes the model-sized allocation each pass otherwise pays.
type PassScratch struct {
	v []float64
}

// NewPassScratch returns an empty scratch; its buffer is sized on first use.
func NewPassScratch() *PassScratch { return &PassScratch{} }

// shadow returns a copy of w: the scratch's buffer when it fits (a nil
// scratch allocates per call).
func (sc *PassScratch) shadow(w []float64) []float64 {
	if sc == nil {
		return vec.Copy(w)
	}
	if len(sc.v) != len(w) {
		sc.v = make([]float64, len(w))
	}
	copy(sc.v, w)
	return sc.v
}

// ReferenceOptimumOn runs a long, conservative sequential optimization on
// train and returns the best objective it measures on eval: per-example SGD
// (LocalPassView) over a grid of four rates, budget epochs each, evaluated
// after every epoch. Experiments use it as the "optimum" against which the
// paper's 0.01 accuracy-loss threshold is measured. Distributed experiments
// evaluate their curves on an evaluation subsample while training on the
// full dataset, so their target is derived the same way — training the
// reference on the subsample itself would overfit it and set an unreachable
// bar.
func ReferenceOptimumOn(obj glm.Objective, train, eval data.View, dim int, budget int) float64 {
	if budget <= 0 {
		budget = 200
	}
	best := math.Inf(1)
	w := make([]float64, dim)
	sc := NewPassScratch()
	for _, eta := range []float64{1, 0.3, 0.1, 0.03} {
		vec.Zero(w) // recycle one buffer across the eta grid
		for ep := 0; ep < budget; ep++ {
			// Per-epoch 1/sqrt decay: constant rate within an epoch.
			LocalPassView(obj, w, train, Const(eta/math.Sqrt(1+float64(ep))), 0, sc)
			// An empty eval view has a loss sum of 0: the value is Ω(w).
			if v := data.LossSum(obj, w, eval)/float64(max(eval.NumRows(), 1)) + obj.Reg.Value(w); v < best {
				best = v
			}
		}
	}
	return best
}
