package lbfgs

// The sequential, full-batch L-BFGS over a []glm.Example that the
// distributed variants are checked against. It lives with the tests: no
// production code runs L-BFGS on one machine.

import (
	"fmt"

	"mllibstar/internal/glm"
	"mllibstar/internal/oracle"
	"mllibstar/internal/vec"
)

// Result summarizes a sequential minimization.
type Result struct {
	W          []float64
	Objective  float64
	Iterations int
	Evals      int // objective/gradient evaluations (line search included)
	Converged  bool
}

// Minimize runs full-batch L-BFGS on the objective over data, starting from
// the zero model, for at most maxIters iterations.
func Minimize(obj glm.Objective, data []glm.Example, dim, maxIters int, opts Options) (Result, error) {
	if _, nonSmooth := obj.Loss.(glm.Hinge); nonSmooth {
		return Result{}, fmt.Errorf("lbfgs: hinge loss is not differentiable; use logistic or squared")
	}
	opts.defaults()
	st := New(opts)
	w := make([]float64, dim)
	res := Result{}

	value := func(w []float64) float64 {
		res.Evals++
		return oracle.Value(obj, w, data)
	}
	gradient := func(w []float64) []float64 {
		g := make([]float64, dim)
		oracle.AddGradient(obj, w, data, g)
		vec.Scale(g, 1/float64(len(data)))
		for j := range g {
			g[j] += obj.Reg.DerivAt(w[j])
		}
		return g
	}

	f := value(w)
	g := gradient(w)
	st.Update(w, g)
	for it := 0; it < maxIters; it++ {
		res.Iterations = it + 1
		if Converged(g) {
			res.Converged = true
			break
		}
		dir, gd := st.Descent(g)
		step := opts.InitialStep
		trial := make([]float64, dim)
		var fNew float64
		accepted := false
		for ls := 0; ls < opts.MaxLineSearch; ls++ {
			copy(trial, w)
			vec.AddScaled(trial, dir, step)
			fNew = value(trial)
			if fNew <= f+opts.ArmijoC*step*gd {
				accepted = true
				break
			}
			step /= 2
		}
		if !accepted {
			res.Converged = true // cannot make progress: treat as converged
			break
		}
		copy(w, trial)
		f = fNew
		g = gradient(w)
		st.Update(w, g)
	}
	res.W = w
	res.Objective = f
	return res, nil
}
