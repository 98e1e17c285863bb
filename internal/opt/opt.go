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
	"fmt"
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

// MGDStep performs one mini-batch gradient-descent update in place:
//
//	w ← w − η·(1/|B|)·Σ∇l − η·∇Ω(w)
//
// using the batch-averaged loss gradient. It returns the work performed in
// nonzeros touched (including the dense regularization sweep when Ω ≠ 0).
func MGDStep(obj glm.Objective, w []float64, batch []glm.Example, eta float64, scratch []float64) (work int) {
	if len(batch) == 0 {
		return 0
	}
	g := scratch
	if len(g) != len(w) {
		g = make([]float64, len(w)) // fresh buffer: already zero
	} else {
		vec.Zero(g) // recycled scratch: clear only in this case
	}
	work = obj.AddGradient(w, batch, g)
	inv := eta / float64(len(batch))
	if _, isNone := obj.Reg.(glm.None); isNone {
		for j := range w {
			w[j] -= inv * g[j]
		}
	} else {
		for j := range w {
			w[j] -= inv*g[j] + eta*obj.Reg.DerivAt(w[j])
		}
		work += len(w) // dense regularization sweep
	}
	return work
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

// LazyL2SGD holds a model in the scaled representation w = s·v so that the
// per-example L2 update
//
//	w ← (1−ηλ)·w − η·l'·x
//
// costs O(nnz(x)): the multiplicative shrinkage folds into the scalar s and
// only the touched coordinates of v change. When s drops below a threshold
// the representation is renormalized to keep the arithmetic well
// conditioned (Bottou's trick, [14] in the paper).
type LazyL2SGD struct {
	Lambda float64
	s      float64
	v      []float64
}

// NewLazyL2SGD returns a lazy updater starting from a copy of w0.
func NewLazyL2SGD(w0 []float64, lambda float64) *LazyL2SGD {
	if lambda < 0 {
		panic(fmt.Sprintf("opt: negative lambda %g", lambda))
	}
	return &LazyL2SGD{Lambda: lambda, s: 1, v: vec.Copy(w0)}
}

// Reset re-initializes the updater from w0 without reallocating.
func (l *LazyL2SGD) Reset(w0 []float64) {
	copy(l.v, w0)
	l.s = 1
}

// ResetWith is Reset with a (possibly different) regularization strength,
// for updaters recycled across objectives.
func (l *LazyL2SGD) ResetWith(w0 []float64, lambda float64) {
	if lambda < 0 {
		panic(fmt.Sprintf("opt: negative lambda %g", lambda))
	}
	l.Lambda = lambda
	l.Reset(w0)
}

// Step applies one per-example update with learning rate eta and returns
// the work in nonzeros touched.
func (l *LazyL2SGD) Step(loss glm.Loss, e glm.Example, eta float64) (work int) {
	margin := l.s * vec.Dot(l.v, e.X)
	d := loss.Deriv(margin, e.Label)
	shrink := 1 - eta*l.Lambda
	if shrink <= 0 {
		// Step too large for the shrinkage factor: fall back to the exact
		// (non-lazy) semantics rather than flipping the model's sign.
		l.materializeInPlace()
		vec.Scale(l.v, math.Max(shrink, 0))
		work = len(l.v)
	} else {
		l.s *= shrink
	}
	if d != 0 {
		vec.Axpy(-eta*d/l.s, e.X, l.v)
	}
	work += e.X.NNZ()
	if l.s < data.LazyRescaleThreshold {
		l.materializeInPlace()
		work += len(l.v)
	}
	return work
}

func (l *LazyL2SGD) materializeInPlace() {
	vec.Scale(l.v, l.s)
	l.s = 1
}

// Weights returns the current model w = s·v as a fresh slice.
func (l *LazyL2SGD) Weights() []float64 {
	w := vec.Copy(l.v)
	vec.Scale(w, l.s)
	return w
}

// WeightsInto materializes the current model w = s·v into dst without
// allocating (bit-identical to copying Weights(): one multiply per
// coordinate). dst must have the model's length.
func (l *LazyL2SGD) WeightsInto(dst []float64) {
	vec.ScaleTo(dst, l.s, l.v)
}

// PassScratch holds the reusable buffers of LocalPassWith: with an L2 term
// every pass needs a lazily scaled shadow of the model, and recycling it
// across steps removes the two model-sized allocations (the shadow copy and
// the materialized result) each pass otherwise pays.
type PassScratch struct {
	lazy *LazyL2SGD
}

// NewPassScratch returns an empty scratch; buffers are sized lazily on first
// use.
func NewPassScratch() *PassScratch { return &PassScratch{} }

// lazyFor returns a lazy updater holding w with strength lambda: the
// scratch's own when it fits (a nil scratch allocates per call).
func (sc *PassScratch) lazyFor(w []float64, lambda float64) *LazyL2SGD {
	if sc != nil && sc.lazy != nil && len(sc.lazy.v) == len(w) {
		sc.lazy.ResetWith(w, lambda)
		return sc.lazy
	}
	lazy := NewLazyL2SGD(w, lambda)
	if sc != nil {
		sc.lazy = lazy
	}
	return lazy
}

// LocalPass runs per-example SGD over data (one epoch, in the given order),
// using the lazy representation when obj has an L2 term and plain sparse
// updates otherwise. It is the worker-local computation of the SendModel
// paradigm: w is updated in place, and the returned work drives the compute
// cost model.
func LocalPass(obj glm.Objective, w []float64, data []glm.Example, sched Schedule, stepBase int) (work int) {
	return LocalPassWith(obj, w, data, sched, stepBase, nil)
}

// LocalPassWith is LocalPass with caller-provided scratch (nil allocates
// per call, reproducing LocalPass). The trained model is bit-identical
// either way; only the allocation count differs.
func LocalPassWith(obj glm.Objective, w []float64, data []glm.Example, sched Schedule, stepBase int, sc *PassScratch) (work int) {
	switch reg := obj.Reg.(type) {
	case glm.None:
		for i, e := range data {
			eta := sched(stepBase + i)
			d := obj.Loss.Deriv(vec.Dot(w, e.X), e.Label)
			if d != 0 {
				vec.Axpy(-eta*d, e.X, w)
			}
			work += e.X.NNZ()
		}
	case glm.L2:
		lazy := sc.lazyFor(w, reg.Strength)
		for i, e := range data {
			work += lazy.Step(obj.Loss, e, sched(stepBase+i))
		}
		lazy.WeightsInto(w)
		work += len(w) // final materialization
	default:
		for i, e := range data {
			work += EagerSGDStep(obj, w, e, sched(stepBase+i))
		}
	}
	return work
}

// LocalMGDEpoch runs mini-batch GD over data split into consecutive batches
// of the given size (the last batch may be smaller) — the per-batch local
// computation Angel performs within one epoch. Returns work in nonzeros.
func LocalMGDEpoch(obj glm.Objective, w []float64, data []glm.Example, batchSize int, sched Schedule, stepBase int, scratch []float64) (work, steps int) {
	if batchSize <= 0 {
		batchSize = len(data)
	}
	for lo := 0; lo < len(data); lo += batchSize {
		hi := lo + batchSize
		if hi > len(data) {
			hi = len(data)
		}
		work += MGDStep(obj, w, data[lo:hi], sched(stepBase+steps), scratch)
		steps++
	}
	return work, steps
}

// ReferenceOptimum runs a long, conservative sequential optimization and
// returns the best objective value it reaches. Experiments use it as the
// "optimum" against which the paper's 0.01 accuracy-loss threshold is
// measured.
func ReferenceOptimum(obj glm.Objective, data []glm.Example, dim int, budget int) float64 {
	return ReferenceOptimumOn(obj, data, data, dim, budget)
}

// ReferenceOptimumOn trains on trainData but reports the best objective
// measured on evalData. Distributed experiments evaluate their curves on an
// evaluation subsample while training on the full dataset, so their target
// must be derived the same way — training the reference on the subsample
// itself would overfit it and set an unreachable bar.
func ReferenceOptimumOn(obj glm.Objective, trainData, evalData []glm.Example, dim int, budget int) float64 {
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
			LocalPassWith(obj, w, trainData, Const(eta/math.Sqrt(1+float64(ep))), 0, sc)
			if v := obj.Value(w, evalData); v < best {
				best = v
			}
		}
	}
	return best
}
