package glm_test

// The objective's value and loss gradient, by the per-example reference in
// internal/oracle, which imports glm: an external test package, so that the
// test binary forms no import cycle.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mllibstar/internal/glm"
	"mllibstar/internal/oracle"
	"mllibstar/internal/vec"
)

func ex(label float64, features map[int32]float64) glm.Example {
	return glm.Example{Label: label, X: vec.SparseFromMap(features)}
}

func TestObjectiveValue(t *testing.T) {
	data := []glm.Example{
		ex(1, map[int32]float64{0: 1}),
		ex(-1, map[int32]float64{1: 1}),
	}
	o := glm.SVM(0)
	w := []float64{2, -2} // both examples classified with margin 2: loss 0
	if got := oracle.Value(o, w, data); got != 0 {
		t.Errorf("Value = %g, want 0", got)
	}
	o2 := glm.SVM(0.1)
	want := 0.1 / 2 * 8
	if got := oracle.Value(o2, w, data); math.Abs(got-want) > 1e-12 {
		t.Errorf("Value = %g, want %g", got, want)
	}
	if got := oracle.Value(o2, w, nil); math.Abs(got-want) > 1e-12 {
		t.Errorf("empty-data Value = %g, want reg only %g", got, want)
	}
}

// lossSum is Σ l(<w,x_i>, y_i), the loss sum a distributed evaluator
// aggregates across partitions before dividing by the global count.
func lossSum(o glm.Objective, w []float64, data []glm.Example) float64 {
	sum := 0.0
	for _, e := range data {
		sum += o.Loss.Value(vec.Dot(w, e.X), e.Label)
	}
	return sum
}

func TestLossSumDistributedConsistency(t *testing.T) {
	// Property: averaging partial loss sums over partitions equals Value on
	// the union (minus the regularizer handled globally).
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var data []glm.Example
		for i := 0; i < 20+r.Intn(30); i++ {
			m := map[int32]float64{}
			for j := 0; j < 1+r.Intn(5); j++ {
				m[int32(r.Intn(10))] = r.NormFloat64()
			}
			y := 1.0
			if r.Intn(2) == 0 {
				y = -1
			}
			data = append(data, ex(y, m))
		}
		w := make([]float64, 10)
		for i := range w {
			w[i] = r.NormFloat64()
		}
		o := glm.SVM(0.1)
		cut := r.Intn(len(data))
		sum := lossSum(o, w, data[:cut]) + lossSum(o, w, data[cut:])
		global := sum/float64(len(data)) + o.Reg.Value(w)
		return math.Abs(global-oracle.Value(o, w, data)) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAddGradientMatchesFiniteDifference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const dim = 8
	var data []glm.Example
	for i := 0; i < 10; i++ {
		m := map[int32]float64{}
		for j := 0; j < 4; j++ {
			m[int32(r.Intn(dim))] = r.NormFloat64()
		}
		y := 1.0
		if r.Intn(2) == 0 {
			y = -1
		}
		data = append(data, ex(y, m))
	}
	o := glm.LogReg(0) // smooth loss for finite differences
	w := make([]float64, dim)
	for i := range w {
		w[i] = r.NormFloat64() * 0.1
	}
	g := make([]float64, dim)
	nnz := oracle.AddGradient(o, w, data, g)
	if nnz != glm.NNZTotal(data) {
		t.Errorf("nnz = %d, want %d", nnz, glm.NNZTotal(data))
	}
	const h = 1e-6
	for j := 0; j < dim; j++ {
		wp := vec.Copy(w)
		wm := vec.Copy(w)
		wp[j] += h
		wm[j] -= h
		fd := (lossSum(o, wp, data) - lossSum(o, wm, data)) / (2 * h)
		if math.Abs(g[j]-fd) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("g[%d] = %g, finite-diff %g", j, g[j], fd)
		}
	}
}
