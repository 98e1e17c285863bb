package glm

import (
	"math"
	"testing"

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
