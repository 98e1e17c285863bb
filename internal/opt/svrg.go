package opt

import (
	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// SVRG implements stochastic variance-reduced gradient (Johnson & Zhang):
// an outer loop pins a snapshot model w̃ and its full gradient μ; the inner
// per-example steps use the corrected direction
//
//	g = ∇l_i(w) − ∇l_i(w̃) + μ
//
// whose variance vanishes as w → w̃, giving linear convergence on strongly
// convex objectives where plain SGD needs a decaying step. This is the
// natural "GD variant" extension of the paper's optimizer family: its full
// gradient is exactly the SendGradient aggregation and its inner loop is
// exactly the SendModel local pass, so it composes with either
// communication pattern.
type SVRG struct {
	Eta float64
	mu  []float64 // full gradient at the snapshot
	ws  []float64 // the snapshot w̃
}

// NewSVRG returns an SVRG state for a dim-dimensional model.
func NewSVRG(dim int, eta float64) *SVRG {
	return &SVRG{Eta: eta, mu: make([]float64, dim), ws: make([]float64, dim)}
}

// SetSnapshot pins the snapshot: w̃ := w and μ := fullGrad, the mean LOSS
// gradient at w over the data (the regularization gradient cancels in the
// correction and is applied at the current iterate inside Step). In a
// distributed setting μ comes from an AllReduce of partial gradients.
func (s *SVRG) SetSnapshot(w, fullGrad []float64) {
	copy(s.ws, w)
	copy(s.mu, fullGrad)
}

// Mu returns the current snapshot gradient (read-only use).
func (s *SVRG) Mu() []float64 { return s.mu }

// Step applies one corrected per-example update to w and returns the work
// in nonzeros touched. The correction term −∇l(w̃) + μ includes the dense μ
// sweep, so a step costs O(dim) — SVRG trades per-step cost for a constant
// usable step size.
func (s *SVRG) Step(obj glm.Objective, w []float64, e glm.Example) (work int) {
	// Both margins in one pass over the example (vec.Dot2 is bit-identical
	// to two separate dots).
	mNow, mSnap := vec.Dot2(w, s.ws, e.X)
	dNow := obj.Loss.Deriv(mNow, e.Label)
	dSnap := obj.Loss.Deriv(mSnap, e.Label)
	// Sparse part: η(∇l_i(w) − ∇l_i(w̃)).
	if diff := dNow - dSnap; diff != 0 {
		vec.Axpy(-s.Eta*diff, e.X, w)
	}
	// Dense part: η(μ + ∇Ω(w)).
	for j := range w {
		w[j] -= s.Eta * (s.mu[j] + obj.Reg.DerivAt(w[j]))
	}
	return 2*e.X.NNZ() + len(w)
}

// Pass runs one inner epoch of corrected steps over the view's rows in
// order.
func (s *SVRG) Pass(obj glm.Objective, w []float64, v data.View) (work int) {
	for i := 0; i < v.NumRows(); i++ {
		work += s.Step(obj, w, v.Example(i))
	}
	return work
}
