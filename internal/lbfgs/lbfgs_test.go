package lbfgs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mllibstar/internal/glm"
	"mllibstar/internal/oracle"
	"mllibstar/internal/vec"
)

func logRegData(rng *rand.Rand, n, dim, nnz int) []glm.Example {
	truth := make([]float64, dim)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}
	data := make([]glm.Example, n)
	for i := range data {
		m := map[int32]float64{}
		for j := 0; j < nnz; j++ {
			m[int32(rng.Intn(dim))] = rng.NormFloat64()
		}
		x := vec.SparseFromMap(m)
		y := 1.0
		if vec.Dot(truth, x) < 0 {
			y = -1
		}
		data[i] = glm.Example{Label: y, X: x}
	}
	return data
}

func TestMinimizeLogisticConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := logRegData(rng, 400, 30, 6)
	obj := glm.LogReg(0.1) // strongly convex: unique optimum
	res, err := Minimize(obj, data, 30, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("not converged after %d iterations (obj %g)", res.Iterations, res.Objective)
	}
	// Gradient at the solution must be ~zero.
	g := make([]float64, 30)
	oracle.AddGradient(obj, res.W, data, g)
	vec.Scale(g, 1/400.0)
	for j := range g {
		g[j] += obj.Reg.DerivAt(res.W[j])
	}
	if norm := math.Sqrt(vec.Norm2Sq(g)); norm > 1e-4 {
		t.Errorf("gradient norm at solution = %g", norm)
	}
}

func TestLBFGSBeatsGradientDescentInIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := logRegData(rng, 500, 40, 8)
	obj := glm.LogReg(0.01)

	res, err := Minimize(obj, data, 40, 60, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Full-batch GD with the same iteration budget.
	w := make([]float64, 40)
	scratch := make([]float64, 40)
	for it := 0; it < 60; it++ {
		oracle.MGDStep(obj, w, data, 0.5, scratch)
	}
	gdObj := oracle.Value(obj, w, data)
	if res.Objective >= gdObj {
		t.Errorf("L-BFGS %g not below GD %g after equal iterations", res.Objective, gdObj)
	}
}

func TestMinimizeRejectsHinge(t *testing.T) {
	if _, err := Minimize(glm.SVM(0), nil, 4, 10, Options{}); err == nil {
		t.Error("want error for hinge loss")
	}
}

func TestDirectionIsDescentProperty(t *testing.T) {
	// Property: after any sequence of valid curvature updates, the two-loop
	// direction satisfies <g, d> < 0 for nonzero g.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 5 + rng.Intn(20)
		st := New(Options{Memory: 5})
		w := make([]float64, dim)
		g := make([]float64, dim)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		st.Update(w, g)
		for step := 0; step < 6; step++ {
			for i := range w {
				w[i] += rng.NormFloat64() * 0.1
			}
			// A synthetic PD-quadratic gradient: g = A·w with A = I + small.
			for i := range g {
				g[i] = w[i] + 0.1*math.Sin(float64(i))
			}
			st.Update(w, g)
		}
		dir := st.Direction(g)
		gd := 0.0
		norm := 0.0
		for i := range g {
			gd += g[i] * dir[i]
			norm += g[i] * g[i]
		}
		return norm == 0 || gd < 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMemoryWindowBounded(t *testing.T) {
	st := New(Options{Memory: 3})
	dim := 4
	w := make([]float64, dim)
	g := make([]float64, dim)
	rng := rand.New(rand.NewSource(3))
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	st.Update(w, g)
	for it := 0; it < 10; it++ {
		for i := range w {
			w[i] += rng.Float64() + 0.1
			g[i] = w[i] // PD quadratic: ensures positive curvature
		}
		st.Update(w, g)
	}
	if st.Pairs() != 3 {
		t.Errorf("pairs = %d, want 3", st.Pairs())
	}
}

func TestNonPositiveCurvaturePairsSkipped(t *testing.T) {
	st := New(Options{Memory: 5})
	w := []float64{0, 0}
	g := []float64{1, 1}
	st.Update(w, g)
	// Same gradient after a move: y = 0, curvature 0 — must be skipped.
	st.Update([]float64{1, 1}, []float64{1, 1})
	if st.Pairs() != 0 {
		t.Errorf("pairs = %d, want 0", st.Pairs())
	}
}
