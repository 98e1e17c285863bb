package opt

import (
	"fmt"
	"math"

	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// AdaGrad is the adaptive per-coordinate optimizer of Duchi et al., the
// workhorse of sparse CTR-style GLMs: each coordinate's step size decays
// with the square root of its accumulated squared gradients, so rare
// features (the heavy Zipf tail of web data) keep large steps while hot
// features anneal quickly.
//
// Updates are sparse: only the coordinates touched by an example are
// updated, and any regularization gradient is applied lazily to those same
// coordinates (the standard online-learning treatment), keeping the cost
// O(nnz) per example.
type AdaGrad struct {
	Eta float64
	Eps float64
	g2  []float64 // accumulated squared gradients
}

// NewAdaGrad returns an optimizer for a dim-dimensional model.
func NewAdaGrad(dim int, eta float64) *AdaGrad {
	if eta <= 0 {
		panic(fmt.Sprintf("opt: AdaGrad eta %g", eta))
	}
	return &AdaGrad{Eta: eta, Eps: 1e-8, g2: make([]float64, dim)}
}

// Step applies one per-example update to w and returns the work performed
// in nonzeros touched.
func (a *AdaGrad) Step(obj glm.Objective, w []float64, e glm.Example) (work int) {
	d := obj.Loss.Deriv(vec.Dot(w, e.X), e.Label)
	n := int32(len(w))
	for i, ix := range e.X.Ind {
		if ix >= n {
			break
		}
		g := d*e.X.Val[i] + obj.Reg.DerivAt(w[ix])
		if g == 0 {
			continue
		}
		a.g2[ix] += g * g
		w[ix] -= a.Eta / (math.Sqrt(a.g2[ix]) + a.Eps) * g
	}
	return e.X.NNZ()
}

// Pass runs one epoch of per-example AdaGrad over the view's rows, in order,
// and returns the work in nonzeros touched.
func (a *AdaGrad) Pass(obj glm.Objective, w []float64, v data.View) (work int) {
	for i := 0; i < v.NumRows(); i++ {
		work += a.Step(obj, w, v.Example(i))
	}
	return work
}

// Accumulators exposes the per-coordinate squared-gradient sums (read-only
// use; exposed for tests and diagnostics).
func (a *AdaGrad) Accumulators() []float64 { return a.g2 }
