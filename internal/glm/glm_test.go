package glm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mllibstar/internal/vec"
)

func ex(label float64, features map[int32]float64) Example {
	return Example{Label: label, X: vec.SparseFromMap(features)}
}

func TestHinge(t *testing.T) {
	h := Hinge{}
	cases := []struct {
		margin, y, value, deriv float64
	}{
		{2, 1, 0, 0},      // correctly classified with margin: no loss
		{0.5, 1, 0.5, -1}, // inside margin
		{-1, 1, 2, -1},    // misclassified
		{-2, -1, 0, 0},    // correct negative
		{0.5, -1, 1.5, 1}, // misclassified negative
	}
	for _, c := range cases {
		if got := h.Value(c.margin, c.y); got != c.value {
			t.Errorf("Value(%g,%g) = %g, want %g", c.margin, c.y, got, c.value)
		}
		if got := h.Deriv(c.margin, c.y); got != c.deriv {
			t.Errorf("Deriv(%g,%g) = %g, want %g", c.margin, c.y, got, c.deriv)
		}
	}
}

func TestLogisticStable(t *testing.T) {
	l := Logistic{}
	// Large positive z: loss ~ 0; large negative z: loss ~ -z. No NaN/Inf.
	if v := l.Value(1000, 1); v != 0 && (math.IsNaN(v) || v > 1e-300) {
		t.Errorf("Value(1000,1) = %g", v)
	}
	v := l.Value(-1000, 1)
	if math.IsInf(v, 0) || math.IsNaN(v) || math.Abs(v-1000) > 1e-9 {
		t.Errorf("Value(-1000,1) = %g, want ~1000", v)
	}
	if d := l.Deriv(-1000, 1); math.Abs(d+1) > 1e-9 {
		t.Errorf("Deriv(-1000,1) = %g, want -1", d)
	}
	if d := l.Deriv(1000, 1); d != 0 && math.Abs(d) > 1e-300 {
		t.Errorf("Deriv(1000,1) = %g, want ~0", d)
	}
	if v := l.Value(0, 1); math.Abs(v-math.Ln2) > 1e-12 {
		t.Errorf("Value(0,1) = %g, want ln2", v)
	}
}

func TestLossDerivMatchesFiniteDifference(t *testing.T) {
	losses := []Loss{Logistic{}, Squared{}}
	for _, l := range losses {
		for _, y := range []float64{-1, 1} {
			for _, m := range []float64{-2.3, -0.4, 0.7, 1.9} {
				const h = 1e-6
				fd := (l.Value(m+h, y) - l.Value(m-h, y)) / (2 * h)
				if got := l.Deriv(m, y); math.Abs(got-fd) > 1e-5 {
					t.Errorf("%s: Deriv(%g,%g) = %g, finite-diff %g", l.Name(), m, y, got, fd)
				}
			}
		}
	}
}

// TestValueDerivMatchesValueAndDeriv: the fused form every gradient-and-loss
// kernel calls is bit for bit the two methods it fuses — at zero, at the
// smallest magnitudes, around the hinge kink, where exp saturates and where
// it overflows, on both sides of the logistic z = y·margin branch.
func TestValueDerivMatchesValueAndDeriv(t *testing.T) {
	margins := []float64{0, math.Copysign(0, -1)}
	for _, m := range []float64{math.SmallestNonzeroFloat64, 1e-300, 1e-9, 0.3, 1, math.Nextafter(1, 2), 2.5, 40, 800} {
		margins = append(margins, m, -m)
	}
	for _, l := range []Loss{Hinge{}, Logistic{}, Squared{}} {
		for _, y := range []float64{-1, 1} {
			for _, m := range margins {
				v, d := l.ValueDeriv(m, y)
				if wv, wd := l.Value(m, y), l.Deriv(m, y); math.Float64bits(v) != math.Float64bits(wv) || math.Float64bits(d) != math.Float64bits(wd) {
					t.Errorf("%s: ValueDeriv(%g, %g) = (%x, %x), want (Value, Deriv) = (%x, %x)", l.Name(), m, y,
						math.Float64bits(v), math.Float64bits(d), math.Float64bits(wv), math.Float64bits(wd))
				}
			}
		}
	}
}

func TestRegularizers(t *testing.T) {
	w := []float64{3, -4, 0}
	l2 := L2{Strength: 0.1}
	if got := l2.Value(w); math.Abs(got-0.05*25) > 1e-12 {
		t.Errorf("L2 value = %g", got)
	}
	if l2.DerivAt(-4) != -0.4 {
		t.Error("L2 deriv")
	}
	l1 := L1{Strength: 2}
	if l1.Value(w) != 14 {
		t.Errorf("L1 value = %g", l1.Value(w))
	}
	if l1.DerivAt(3) != 2 || l1.DerivAt(-1) != -2 || l1.DerivAt(0) != 0 {
		t.Error("L1 deriv")
	}
	n := None{}
	if n.Value(w) != 0 || n.DerivAt(5) != 0 || n.Lambda() != 0 {
		t.Error("None not zero")
	}
}

func TestByNameLookups(t *testing.T) {
	for _, name := range []string{"hinge", "logistic", "squared"} {
		l, err := LossByName(name)
		if err != nil || l.Name() != name {
			t.Errorf("LossByName(%q) = %v, %v", name, l, err)
		}
	}
	if _, err := LossByName("nope"); err == nil {
		t.Error("want error")
	}
	r, err := RegByName("l2", 0.1)
	if err != nil || r.Name() != "l2" || r.Lambda() != 0.1 {
		t.Errorf("RegByName l2 = %v, %v", r, err)
	}
	if r, _ := RegByName("l2", 0); r.Name() != "none" {
		t.Error("l2 with lambda 0 should collapse to none")
	}
	if _, err := RegByName("nope", 1); err == nil {
		t.Error("want error")
	}
}

func TestObjectiveValue(t *testing.T) {
	data := []Example{
		ex(1, map[int32]float64{0: 1}),
		ex(-1, map[int32]float64{1: 1}),
	}
	o := SVM(0)
	w := []float64{2, -2} // both examples classified with margin 2: loss 0
	if got := o.Value(w, data); got != 0 {
		t.Errorf("Value = %g, want 0", got)
	}
	o2 := SVM(0.1)
	want := 0.1 / 2 * 8
	if got := o2.Value(w, data); math.Abs(got-want) > 1e-12 {
		t.Errorf("Value = %g, want %g", got, want)
	}
	if got := o2.Value(w, nil); math.Abs(got-want) > 1e-12 {
		t.Errorf("empty-data Value = %g, want reg only %g", got, want)
	}
}

func TestLossSumDistributedConsistency(t *testing.T) {
	// Property: averaging LossSum over partitions equals Value on the union
	// (minus the regularizer handled globally).
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var data []Example
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
		o := SVM(0.1)
		cut := r.Intn(len(data))
		sum := o.LossSum(w, data[:cut]) + o.LossSum(w, data[cut:])
		global := sum/float64(len(data)) + o.Reg.Value(w)
		return math.Abs(global-o.Value(w, data)) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAddGradientMatchesFiniteDifference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const dim = 8
	var data []Example
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
	o := LogReg(0) // smooth loss for finite differences
	w := make([]float64, dim)
	for i := range w {
		w[i] = r.NormFloat64() * 0.1
	}
	g := make([]float64, dim)
	nnz := o.AddGradient(w, data, g)
	if nnz != NNZTotal(data) {
		t.Errorf("nnz = %d, want %d", nnz, NNZTotal(data))
	}
	const h = 1e-6
	for j := 0; j < dim; j++ {
		wp := vec.Copy(w)
		wm := vec.Copy(w)
		wp[j] += h
		wm[j] -= h
		fd := (o.LossSum(wp, data) - o.LossSum(wm, data)) / (2 * h)
		if math.Abs(g[j]-fd) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("g[%d] = %g, finite-diff %g", j, g[j], fd)
		}
	}
}

func TestAccuracy(t *testing.T) {
	data := []Example{
		ex(1, map[int32]float64{0: 1}),
		ex(-1, map[int32]float64{0: 1}),
		ex(-1, map[int32]float64{1: 1}),
	}
	w := []float64{1, -1}
	// Example 0: margin 1, label +1: correct. Example 1: margin 1, label -1:
	// wrong. Example 2: margin -1, label -1: correct.
	if got := Accuracy(w, data); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Accuracy = %g", got)
	}
	if Accuracy(w, nil) != 0 {
		t.Error("empty accuracy")
	}
}

func TestSVMAndLogRegConstructors(t *testing.T) {
	if SVM(0).Reg.Name() != "none" || SVM(0.1).Reg.Name() != "l2" {
		t.Error("SVM constructor wrong")
	}
	if LogReg(0).Loss.Name() != "logistic" || LogReg(0.5).Reg.Lambda() != 0.5 {
		t.Error("LogReg constructor wrong")
	}
}

func TestElasticNet(t *testing.T) {
	w := []float64{3, -4, 0}
	r := ElasticNet{Strength: 1, L1Ratio: 0.5}
	// 0.5*7 + 0.25*25 = 3.5 + 6.25
	if got := r.Value(w); math.Abs(got-9.75) > 1e-12 {
		t.Errorf("value = %g", got)
	}
	// d/dw at 3: 0.5*3 + 0.5 = 2
	if got := r.DerivAt(3); math.Abs(got-2) > 1e-12 {
		t.Errorf("deriv = %g", got)
	}
	if got := r.DerivAt(-4); math.Abs(got-(-2.5)) > 1e-12 {
		t.Errorf("deriv = %g", got)
	}
	if r.DerivAt(0) != 0 {
		t.Error("deriv at 0")
	}
	// Pure ridge and pure lasso limits match L2/L1.
	ridge := ElasticNet{Strength: 0.2, L1Ratio: 0}
	if math.Abs(ridge.Value(w)-L2{Strength: 0.2}.Value(w)) > 1e-12 {
		t.Error("ridge limit wrong")
	}
	lasso := ElasticNet{Strength: 0.2, L1Ratio: 1}
	if math.Abs(lasso.Value(w)-L1{Strength: 0.2}.Value(w)) > 1e-12 {
		t.Error("lasso limit wrong")
	}
}

func TestAUCPerfectAndRandom(t *testing.T) {
	// Perfect separation: AUC = 1.
	data := []Example{
		ex(1, map[int32]float64{0: 2}),
		ex(1, map[int32]float64{0: 1}),
		ex(-1, map[int32]float64{0: -1}),
		ex(-1, map[int32]float64{0: -2}),
	}
	w := []float64{1}
	if got := AUC(w, data); got != 1 {
		t.Errorf("perfect AUC = %g", got)
	}
	// Inverted model: AUC = 0.
	if got := AUC([]float64{-1}, data); got != 0 {
		t.Errorf("inverted AUC = %g", got)
	}
	// Single-class data: 0.5 by convention.
	if got := AUC(w, data[:2]); got != 0.5 {
		t.Errorf("single-class AUC = %g", got)
	}
}

func TestAUCTies(t *testing.T) {
	// All margins equal: AUC must be exactly 0.5 via average ranks.
	data := []Example{
		ex(1, map[int32]float64{0: 1}),
		ex(-1, map[int32]float64{0: 1}),
		ex(1, map[int32]float64{0: 1}),
		ex(-1, map[int32]float64{0: 1}),
	}
	if got := AUC([]float64{1}, data); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("tied AUC = %g", got)
	}
}

func TestAUCMatchesPairCounting(t *testing.T) {
	// Property: AUC equals the fraction of (pos, neg) pairs ranked
	// correctly (ties count half), by brute force on small random data.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const dim = 6
		var data []Example
		for i := 0; i < 20; i++ {
			m := map[int32]float64{int32(r.Intn(dim)): float64(r.Intn(5))}
			y := 1.0
			if r.Intn(2) == 0 {
				y = -1
			}
			data = append(data, ex(y, m))
		}
		w := make([]float64, dim)
		for i := range w {
			w[i] = r.NormFloat64()
		}
		margins := make([]float64, len(data))
		for i, e := range data {
			margins[i] = vec.Dot(w, e.X)
		}
		correct, total := 0.0, 0.0
		for i, a := range data {
			if a.Label <= 0 {
				continue
			}
			for j, b := range data {
				if b.Label > 0 {
					continue
				}
				total++
				switch {
				case margins[i] > margins[j]:
					correct++
				case margins[i] == margins[j]:
					correct += 0.5
				}
			}
		}
		if total == 0 {
			return true
		}
		return math.Abs(AUC(w, data)-correct/total) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
