// Package glm defines generalized linear models as the paper studies them:
// an objective f(w, X) = l(w, X) + Ω(w) where l is a margin-based loss
// (hinge for SVM, logistic for LR, squared for linear regression) averaged
// over the data and Ω is a regularization term (none or L2).
//
// All trainers in this repository — sequential MGD, MLlib's SendGradient,
// MLlib*'s model averaging, and the parameter-server baselines — share these
// loss/regularizer kernels, so their objective values are directly
// comparable, exactly as the paper compares systems by objective-vs-time.
package glm

import (
	"fmt"
	"math"

	"mllibstar/internal/vec"
)

// Example is one labelled training instance. For classification losses the
// label must be -1 or +1; for squared loss it is the regression target.
type Example struct {
	Label float64
	X     vec.Sparse
}

// Loss is a margin-based loss l(margin, y), where margin = <w, x>.
type Loss interface {
	// Name identifies the loss in configs and reports.
	Name() string
	// Value returns l(margin, y).
	Value(margin, y float64) float64
	// Deriv returns ∂l/∂margin; the gradient w.r.t. the model is Deriv·x.
	Deriv(margin, y float64) float64
	// ValueDeriv returns (Value, Deriv) of one margin, bit for bit, sharing
	// whatever the two have in common — the fused gradient-and-loss kernels
	// call it once per row.
	ValueDeriv(margin, y float64) (value, deriv float64)
}

// Hinge is the SVM loss max(0, 1 - y·margin) — the workload of the paper's
// evaluation (linear SVM on five datasets).
type Hinge struct{}

func (Hinge) Name() string { return "hinge" }

func (Hinge) Value(margin, y float64) float64 {
	if v := 1 - y*margin; v > 0 {
		return v
	}
	return 0
}

func (Hinge) Deriv(margin, y float64) float64 {
	if 1-y*margin > 0 {
		return -y
	}
	return 0
}

func (l Hinge) ValueDeriv(margin, y float64) (value, deriv float64) {
	return l.Value(margin, y), l.Deriv(margin, y)
}

// Logistic is the logistic-regression loss log(1 + exp(-y·margin)).
type Logistic struct{}

func (Logistic) Name() string { return "logistic" }

func (Logistic) Value(margin, y float64) float64 {
	z := y * margin
	// Numerically stable log(1+exp(-z)).
	if z > 0 {
		return math.Log1p(math.Exp(-z))
	}
	return -z + math.Log1p(math.Exp(z))
}

func (Logistic) Deriv(margin, y float64) float64 {
	z := y * margin
	// -y * sigmoid(-z), computed stably.
	if z > 0 {
		e := math.Exp(-z)
		return -y * e / (1 + e)
	}
	return -y / (1 + math.Exp(z))
}

// ValueDeriv is Value and Deriv fused on the shared exponential: per branch
// this is the exact operation sequence of each method, with exp computed
// once.
func (Logistic) ValueDeriv(margin, y float64) (value, deriv float64) {
	if z := y * margin; z > 0 {
		e := math.Exp(-z)
		return math.Log1p(e), -y * e / (1 + e)
	} else {
		e := math.Exp(z)
		return -z + math.Log1p(e), -y / (1 + e)
	}
}

// Squared is the least-squares loss (margin - y)²/2.
type Squared struct{}

func (Squared) Name() string { return "squared" }

func (Squared) Value(margin, y float64) float64 { d := margin - y; return d * d / 2 }

func (Squared) Deriv(margin, y float64) float64 { return margin - y }

func (l Squared) ValueDeriv(margin, y float64) (value, deriv float64) {
	return l.Value(margin, y), l.Deriv(margin, y)
}

// LossByName returns the loss with the given Name.
func LossByName(name string) (Loss, error) {
	switch name {
	case "hinge":
		return Hinge{}, nil
	case "logistic":
		return Logistic{}, nil
	case "squared":
		return Squared{}, nil
	}
	return nil, fmt.Errorf("glm: unknown loss %q", name)
}

// Regularizer is the Ω(w) term of the objective.
type Regularizer interface {
	// Name identifies the regularizer in configs and reports.
	Name() string
	// Lambda returns the regularization strength (zero for None).
	Lambda() float64
	// Value returns Ω(w).
	Value(w []float64) float64
	// DerivAt returns ∂Ω/∂w_j at the given weight value.
	DerivAt(wj float64) float64
}

// None is the absent regularizer (Ω = 0) — the paper's "L2=0" settings.
type None struct{}

func (None) Name() string            { return "none" }
func (None) Lambda() float64         { return 0 }
func (None) Value([]float64) float64 { return 0 }
func (None) DerivAt(float64) float64 { return 0 }

// L2 is ridge regularization Ω(w) = λ/2·‖w‖².
type L2 struct{ Strength float64 }

func (r L2) Name() string               { return "l2" }
func (r L2) Lambda() float64            { return r.Strength }
func (r L2) Value(w []float64) float64  { return r.Strength / 2 * vec.Norm2Sq(w) }
func (r L2) DerivAt(wj float64) float64 { return r.Strength * wj }

// Objective bundles a loss and a regularizer: f(w, X) = mean loss + Ω(w).
type Objective struct {
	Loss Loss
	Reg  Regularizer
}

// SVM returns the paper's evaluation objective: hinge loss with the given L2
// strength (zero means no regularization).
func SVM(l2 float64) Objective {
	if l2 == 0 {
		return Objective{Loss: Hinge{}, Reg: None{}}
	}
	return Objective{Loss: Hinge{}, Reg: L2{Strength: l2}}
}

// LogReg returns a logistic-regression objective with the given L2 strength.
func LogReg(l2 float64) Objective {
	if l2 == 0 {
		return Objective{Loss: Logistic{}, Reg: None{}}
	}
	return Objective{Loss: Logistic{}, Reg: L2{Strength: l2}}
}

// Accuracy returns the fraction of examples whose label sign the model
// predicts correctly (classification losses only).
func Accuracy(w []float64, data []Example) float64 {
	if len(data) == 0 {
		return 0
	}
	correct := 0
	for _, e := range data {
		margin := vec.Dot(w, e.X)
		if (margin >= 0 && e.Label > 0) || (margin < 0 && e.Label < 0) {
			correct++
		}
	}
	return float64(correct) / float64(len(data))
}

// NNZTotal returns the total number of nonzero features across the examples.
func NNZTotal(data []Example) int {
	n := 0
	for _, e := range data {
		n += e.X.NNZ()
	}
	return n
}
