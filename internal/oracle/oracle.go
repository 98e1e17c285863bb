// Package oracle holds the per-example reference loops that the slab
// kernels (internal/data) and the view-form optimizers (internal/opt) are
// held to bit for bit: the objective value and loss gradient, mini-batch
// gradient descent, per-example SGD with its eager and lazily scaled L2
// updates, the SVRG snapshot gradient, and the reference optimum. Each walks
// a []glm.Example one row at a time, in the same floating-point operation
// order as the kernel it checks.
//
// Only tests import this package (TestOracleIsTestOnly): production code
// reads rows through data.View alone. It imports no production optimizer,
// so opt's and data's tests can import it without a cycle; it keeps its own
// copy of the eager step for that reason.
package oracle

import (
	"fmt"
	"math"

	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// Value returns f(w, X) = (1/n)·Σ l(<w,x_i>, y_i) + Ω(w) over the examples:
// each margin is vec.Dot's and the losses fold in row order, as data.LossSum
// does over a view.
func Value(o glm.Objective, w []float64, data []glm.Example) float64 {
	if len(data) == 0 {
		return o.Reg.Value(w)
	}
	sum := 0.0
	for _, e := range data {
		sum += o.Loss.Value(vec.Dot(w, e.X), e.Label)
	}
	return sum/float64(len(data)) + o.Reg.Value(w)
}

// AddGradient accumulates the gradient of the loss term only, summed over
// the examples, into g: g += Σ l'(<w,x_i>, y_i)·x_i. It returns the
// nonzeros touched, as data.AddGradient does.
func AddGradient(o glm.Objective, w []float64, data []glm.Example, g []float64) (nnz int) {
	for _, e := range data {
		d := o.Loss.Deriv(vec.Dot(w, e.X), e.Label)
		if d != 0 {
			vec.Axpy(d, e.X, g)
		}
		nnz += e.X.NNZ()
	}
	return nnz
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
	work = AddGradient(obj, w, batch, g)
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
// gradient applied densely. It is opt.EagerSGDStep's body.
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
// only the touched coordinates of v change. When s drops below
// data.LazyRescaleThreshold the representation is renormalized (Bottou's
// trick, [14] in the paper).
type LazyL2SGD struct {
	Lambda float64
	s      float64
	v      []float64
}

// NewLazyL2SGD returns a lazy updater starting from a copy of w0.
func NewLazyL2SGD(w0 []float64, lambda float64) *LazyL2SGD {
	if lambda < 0 {
		panic(fmt.Sprintf("oracle: negative lambda %g", lambda))
	}
	return &LazyL2SGD{Lambda: lambda, s: 1, v: vec.Copy(w0)}
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

// LocalPass runs per-example SGD over data (one epoch, in the given order),
// using the lazy representation when obj has an L2 term and plain sparse
// updates without one, as opt.LocalPassView does over a view; any other
// regulariser panics.
func LocalPass(obj glm.Objective, w []float64, data []glm.Example, sched func(int) float64, stepBase int) (work int) {
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
		lazy := NewLazyL2SGD(w, reg.Strength)
		for i, e := range data {
			work += lazy.Step(obj.Loss, e, sched(stepBase+i))
		}
		copy(w, lazy.Weights())
		work += len(w) // final materialization
	default:
		panic(fmt.Sprintf("oracle: no local pass for regulariser %T", reg))
	}
	return work
}

// LocalMGDEpoch runs mini-batch GD over data split into consecutive batches
// of the given size (the last batch may be smaller). It returns the work in
// nonzeros and the number of steps taken.
func LocalMGDEpoch(obj glm.Objective, w []float64, data []glm.Example, batchSize int, sched func(int) float64, stepBase int, scratch []float64) (work, steps int) {
	if batchSize <= 0 {
		batchSize = len(data)
	}
	for lo := 0; lo < len(data); lo += batchSize {
		hi := min(lo+batchSize, len(data))
		work += MGDStep(obj, w, data[lo:hi], sched(stepBase+steps), scratch)
		steps++
	}
	return work, steps
}

// Snapshot returns the SVRG snapshot gradient μ at w, the mean loss
// gradient over data (no regularization), which opt.SVRG.SetSnapshot
// installs.
func Snapshot(obj glm.Objective, w []float64, data []glm.Example) []float64 {
	mu := make([]float64, len(w))
	AddGradient(obj, w, data, mu)
	if len(data) > 0 {
		vec.Scale(mu, 1/float64(len(data)))
	}
	return mu
}

// ReferenceOptimumOn trains on trainData with per-example SGD over a grid
// of four rates and budget epochs each, and returns the best objective it
// measures on evalData after any epoch — opt.ReferenceOptimumOn's
// algorithm, one row at a time.
func ReferenceOptimumOn(obj glm.Objective, trainData, evalData []glm.Example, dim int, budget int) float64 {
	if budget <= 0 {
		budget = 200
	}
	best := math.Inf(1)
	w := make([]float64, dim)
	for _, eta := range []float64{1, 0.3, 0.1, 0.03} {
		vec.Zero(w)
		for ep := 0; ep < budget; ep++ {
			// Per-epoch 1/sqrt decay: constant rate within an epoch.
			rate := eta / math.Sqrt(1+float64(ep))
			LocalPass(obj, w, trainData, func(int) float64 { return rate }, 0)
			if v := Value(obj, w, evalData); v < best {
				best = v
			}
		}
	}
	return best
}
