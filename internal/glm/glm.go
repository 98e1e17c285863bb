// Package glm defines generalized linear models as the paper studies them:
// an objective f(w, X) = l(w, X) + Ω(w) where l is a margin-based loss
// (hinge for SVM, logistic for LR, squared for linear regression) averaged
// over the data and Ω is a regularization term (none, L1, or L2).
//
// All trainers in this repository — sequential MGD, MLlib's SendGradient,
// MLlib*'s model averaging, and the parameter-server baselines — share these
// loss/regularizer kernels, so their objective values are directly
// comparable, exactly as the paper compares systems by objective-vs-time.
package glm

import (
	"fmt"
	"math"
	"sort"

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

// L1 is lasso regularization Ω(w) = λ·‖w‖₁ with the subgradient λ·sign(w).
type L1 struct{ Strength float64 }

func (r L1) Name() string              { return "l1" }
func (r L1) Lambda() float64           { return r.Strength }
func (r L1) Value(w []float64) float64 { return r.Strength * vec.Norm1(w) }
func (r L1) DerivAt(wj float64) float64 {
	switch {
	case wj > 0:
		return r.Strength
	case wj < 0:
		return -r.Strength
	}
	return 0
}

// ElasticNet combines L1 and L2 regularization:
// Ω(w) = α·λ·‖w‖₁ + (1−α)·λ/2·‖w‖², the mixture spark.ml exposes for GLMs.
type ElasticNet struct {
	Strength float64 // λ
	L1Ratio  float64 // α in [0, 1]: 1 = pure lasso, 0 = pure ridge
}

func (r ElasticNet) Name() string    { return "elasticnet" }
func (r ElasticNet) Lambda() float64 { return r.Strength }

func (r ElasticNet) Value(w []float64) float64 {
	return r.Strength * (r.L1Ratio*vec.Norm1(w) + (1-r.L1Ratio)/2*vec.Norm2Sq(w))
}

func (r ElasticNet) DerivAt(wj float64) float64 {
	d := r.Strength * (1 - r.L1Ratio) * wj
	switch {
	case wj > 0:
		d += r.Strength * r.L1Ratio
	case wj < 0:
		d -= r.Strength * r.L1Ratio
	}
	return d
}

// RegByName returns a regularizer by name with the given strength.
func RegByName(name string, lambda float64) (Regularizer, error) {
	switch name {
	case "none", "":
		return None{}, nil
	case "l2":
		if lambda == 0 {
			return None{}, nil
		}
		return L2{Strength: lambda}, nil
	case "l1":
		if lambda == 0 {
			return None{}, nil
		}
		return L1{Strength: lambda}, nil
	}
	return nil, fmt.Errorf("glm: unknown regularizer %q", name)
}

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

// Value returns f(w, X) = (1/n)·Σ l(<w,x_i>, y_i) + Ω(w) over the examples.
// It is the metric every experiment in the paper plots on its y-axis.
func (o Objective) Value(w []float64, data []Example) float64 {
	if len(data) == 0 {
		return o.Reg.Value(w)
	}
	return o.LossSum(w, data)/float64(len(data)) + o.Reg.Value(w)
}

// LossSum returns Σ l(<w,x_i>, y_i) over the examples, without dividing and
// without the regularization term. Distributed evaluators aggregate LossSum
// across partitions and divide by the global count.
//
// The sum is the row-at-a-time loop's, bit for bit: each margin is vec.Dot's
// sum in vec.Dot's order and the losses fold in row order. The margins of
// two consecutive rows are computed together, as independent chains, so each
// hides the other's add latency.
func (o Objective) LossSum(w []float64, data []Example) float64 {
	sum := 0.0
	i := 0
	for ; i+1 < len(data); i += 2 {
		a, b := &data[i], &data[i+1]
		ma, mb := dot2(w, a.X, b.X)
		sum += o.Loss.Value(ma, a.Label)
		sum += o.Loss.Value(mb, b.Label)
	}
	if i < len(data) {
		sum += o.Loss.Value(vec.Dot(w, data[i].X), data[i].Label)
	}
	return sum
}

// dot2 returns (vec.Dot(w, x), vec.Dot(w, y)) bit for bit. Indices ascend,
// so vec.Dot's stop at the first index beyond len(w) keeps a prefix of each
// row; the two sums advance in lockstep over the prefixes' common length,
// then the longer one finishes alone.
func dot2(w []float64, x, y vec.Sparse) (sx, sy float64) {
	n := int32(len(w))
	xi, yi := x.Ind[:inRange(x.Ind, n)], y.Ind[:inRange(y.Ind, n)]
	xv, yv := x.Val[:len(xi)], y.Val[:len(yi)]
	k := min(len(xi), len(yi))
	for p := 0; p < k; p++ {
		sx += w[xi[p]] * xv[p]
		sy += w[yi[p]] * yv[p]
	}
	for p := k; p < len(xi); p++ {
		sx += w[xi[p]] * xv[p]
	}
	for p := k; p < len(yi); p++ {
		sy += w[yi[p]] * yv[p]
	}
	return sx, sy
}

// inRange returns how many of the ascending indices ind are below n: all of
// them unless the last one is not.
func inRange(ind []int32, n int32) int {
	k := len(ind)
	if k == 0 || ind[k-1] < n {
		return k
	}
	p := 0
	for p < k && ind[p] < n {
		p++
	}
	return p
}

// AddGradient accumulates the gradient of the *loss term only*, summed (not
// averaged) over the examples, into g: g += Σ l'(<w,x_i>, y_i)·x_i.
// Regularization gradients are applied separately by the optimizers because
// the efficient treatment of L2 (lazy scaling) differs per algorithm.
// It returns the number of nonzeros touched, the unit of the simulation's
// compute cost model.
func (o Objective) AddGradient(w []float64, data []Example, g []float64) (nnz int) {
	for _, e := range data {
		d := o.Loss.Deriv(vec.Dot(w, e.X), e.Label)
		if d != 0 {
			vec.Axpy(d, e.X, g)
		}
		nnz += e.X.NNZ()
	}
	return nnz
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

// AUC returns the area under the ROC curve of the model's margins over the
// examples — the ranking metric CTR practitioners actually optimize. It is
// computed exactly via the rank-sum formulation, with ties sharing average
// ranks. It returns 0.5 when either class is absent.
func AUC(w []float64, data []Example) float64 {
	type scored struct {
		margin float64
		pos    bool
	}
	scores := make([]scored, len(data))
	nPos := 0
	for i, e := range data {
		pos := e.Label > 0
		if pos {
			nPos++
		}
		scores[i] = scored{margin: vec.Dot(w, e.X), pos: pos}
	}
	nNeg := len(data) - nPos
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i].margin < scores[j].margin })
	// Rank sum of the positives, averaging ranks within tied margins.
	rankSum := 0.0
	i := 0
	for i < len(scores) {
		j := i
		//mlstar:nolint floateq -- exact compare intentional: tie groups are runs of identical sorted margins
		for j < len(scores) && scores[j].margin == scores[i].margin {
			j++
		}
		avgRank := float64(i+j+1) / 2 // 1-based average rank of the tie group
		for t := i; t < j; t++ {
			if scores[t].pos {
				rankSum += avgRank
			}
		}
		i = j
	}
	return (rankSum - float64(nPos)*float64(nPos+1)/2) / (float64(nPos) * float64(nNeg))
}

// NNZTotal returns the total number of nonzero features across the examples.
func NNZTotal(data []Example) int {
	n := 0
	for _, e := range data {
		n += e.X.NNZ()
	}
	return n
}
