// Package lbfgs implements the limited-memory BFGS optimizer [27 in the
// paper]: the curvature-pair window, the two-loop direction and the
// line-search constants. The paper's conclusion singles out spark.ml's
// L-BFGS as the natural follow-up question: do the MLlib* techniques
// transfer to a second-order method? internal/core answers it by driving
// this state over both aggregation paths — treeAggregate through the driver
// (LBFGS, how spark.ml aggregates) and the driverless AllReduce (LBFGS*).
//
// L-BFGS needs a differentiable objective; use the logistic or squared
// loss (the hinge subgradient breaks the curvature-pair update).
package lbfgs

import (
	"math"

	"mllibstar/internal/vec"
)

// Options configures the optimizer.
type Options struct {
	// Memory is the number of curvature pairs kept (default 8).
	Memory int
	// MaxLineSearch bounds backtracking steps per iteration (default 20).
	MaxLineSearch int
	// InitialStep is the first step length tried (default 1, the Newton
	// scaling that makes L-BFGS fast).
	InitialStep float64
	// ArmijoC is the sufficient-decrease constant (default 1e-4).
	ArmijoC float64
}

func (o *Options) defaults() {
	if o.Memory <= 0 {
		o.Memory = 8
	}
	if o.MaxLineSearch <= 0 {
		o.MaxLineSearch = 20
	}
	if o.InitialStep <= 0 {
		o.InitialStep = 1
	}
	if o.ArmijoC <= 0 {
		o.ArmijoC = 1e-4
	}
}

// pair is one (s, y) curvature pair with its cached 1/(y·s).
type pair struct {
	s, y []float64
	rho  float64
}

// State is the iterative L-BFGS state. The caller supplies the objective
// value and gradient at each iterate (which is what makes the distributed
// variants possible: the gradient can come from anywhere), and State turns
// them into the next iterate.
//
// A run allocates at most Memory+1 curvature pairs: once the window is
// full, Update writes the new pair into the buffers of the one it evicts,
// and a pair the curvature test rejects keeps its buffers for the next
// Update. Buffer reuse moves no bit: every pair element is overwritten
// before it is read.
type State struct {
	opts  Options
	pairs []pair // most recent last
	spare pair   // buffers of the last evicted or rejected pair, reused by the next Update
	prevW []float64
	prevG []float64
	dir   []float64
	alpha []float64
}

// New returns an empty optimizer state.
func New(opts Options) *State {
	opts.defaults()
	return &State{opts: opts}
}

// Options returns the state's options, defaults filled in.
func (st *State) Options() Options { return st.opts }

// Descent returns the search direction at gradient g and g·dir: the
// two-loop direction, or — when that is not a descent direction (numerical
// trouble) — steepest descent after the curvature memory is dropped.
func (st *State) Descent(g []float64) (dir []float64, gd float64) {
	dir = st.Direction(g)
	if gd = dot(g, dir); gd >= 0 {
		st.pairs = st.pairs[:0]
		dir = st.Direction(g)
		gd = dot(g, dir)
	}
	return dir, gd
}

// Converged reports whether the gradient norm is below the tolerance at
// which an iteration stops.
func Converged(g []float64) bool { return math.Sqrt(vec.Norm2Sq(g)) < gradTolerance }

// Direction computes the descent direction -H·g using the two-loop
// recursion over the stored curvature pairs. The first iteration (no
// pairs) returns steepest descent.
func (st *State) Direction(g []float64) []float64 {
	if cap(st.dir) < len(g) {
		st.dir = make([]float64, len(g))
		st.alpha = make([]float64, st.opts.Memory)
	}
	q := st.dir[:len(g)]
	copy(q, g)

	for i := len(st.pairs) - 1; i >= 0; i-- {
		p := st.pairs[i]
		a := p.rho * dot(p.s, q)
		st.alpha[i] = a
		vec.AddScaled(q, p.y, -a)
	}
	// Initial Hessian scaling gamma = (s·y)/(y·y) from the newest pair.
	if n := len(st.pairs); n > 0 {
		p := st.pairs[n-1]
		gamma := dot(p.s, p.y) / vec.Norm2Sq(p.y)
		vec.Scale(q, gamma)
	}
	for i := 0; i < len(st.pairs); i++ {
		p := st.pairs[i]
		b := p.rho * dot(p.y, q)
		vec.AddScaled(q, p.s, st.alpha[i]-b)
	}
	vec.Scale(q, -1)
	return q
}

// Update records the new iterate and its gradient, maintaining the
// curvature-pair window. Pairs with non-positive curvature are skipped
// (they would break positive-definiteness).
func (st *State) Update(w, g []float64) {
	if st.prevW != nil {
		p := st.spare
		if len(p.s) != len(w) {
			p = pair{s: make([]float64, len(w)), y: make([]float64, len(g))}
		}
		for i := range w {
			p.s[i] = w[i] - st.prevW[i]
			p.y[i] = g[i] - st.prevG[i]
		}
		if ys := dot(p.y, p.s); ys > 1e-12 {
			p.rho = 1 / ys
			st.spare = pair{}
			if len(st.pairs) == st.opts.Memory {
				st.spare = st.pairs[0]
				st.pairs = append(st.pairs[:0], st.pairs[1:]...)
			}
			st.pairs = append(st.pairs, p)
		} else {
			st.spare = p
		}
	} else {
		st.prevW = make([]float64, len(w))
		st.prevG = make([]float64, len(g))
	}
	copy(st.prevW, w)
	copy(st.prevG, g)
}

// Pairs returns the number of stored curvature pairs.
func (st *State) Pairs() int { return len(st.pairs) }

func dot(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// gradTolerance declares convergence when ‖g‖ drops below this value.
const gradTolerance = 1e-6
