package vec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustSparse(t *testing.T, ind []int32, val []float64) Sparse {
	t.Helper()
	s, err := NewSparse(ind, val)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSparseValidation(t *testing.T) {
	cases := []struct {
		name string
		ind  []int32
		val  []float64
		ok   bool
	}{
		{"empty", nil, nil, true},
		{"valid", []int32{0, 3, 7}, []float64{1, 2, 3}, true},
		{"length mismatch", []int32{0}, []float64{1, 2}, false},
		{"negative index", []int32{-1}, []float64{1}, false},
		{"duplicate index", []int32{2, 2}, []float64{1, 1}, false},
		{"decreasing", []int32{3, 1}, []float64{1, 1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewSparse(c.ind, c.val)
			if (err == nil) != c.ok {
				t.Errorf("err = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestSparseFromMap(t *testing.T) {
	s := SparseFromMap(map[int32]float64{5: 2, 1: 1, 9: 0})
	if !reflect.DeepEqual(s.Ind, []int32{1, 5}) || !reflect.DeepEqual(s.Val, []float64{1, 2}) {
		t.Errorf("s = %+v", s)
	}
}

func TestAtAndMaxIndex(t *testing.T) {
	s := mustSparse(t, []int32{1, 4, 9}, []float64{10, 40, 90})
	if s.At(4) != 40 || s.At(5) != 0 || s.At(0) != 0 {
		t.Error("At wrong")
	}
	if s.MaxIndex() != 9 {
		t.Error("MaxIndex wrong")
	}
	if (Sparse{}).MaxIndex() != -1 {
		t.Error("empty MaxIndex")
	}
}

func TestDotMatchesDense(t *testing.T) {
	s := mustSparse(t, []int32{0, 2, 5}, []float64{1, -2, 3})
	w := []float64{2, 100, 4, 100, 100, -1}
	want := 2*1 + 4*(-2) + (-1)*3
	if got := Dot(w, s); got != float64(want) {
		t.Errorf("Dot = %g, want %d", got, want)
	}
}

func TestDotIgnoresOutOfRange(t *testing.T) {
	s := mustSparse(t, []int32{1, 10}, []float64{2, 5})
	w := []float64{0, 3}
	if got := Dot(w, s); got != 6 {
		t.Errorf("Dot = %g, want 6", got)
	}
}

func TestAxpy(t *testing.T) {
	s := mustSparse(t, []int32{0, 2}, []float64{1, 2})
	w := []float64{10, 10, 10}
	Axpy(-2, s, w)
	if !reflect.DeepEqual(w, []float64{8, 10, 6}) {
		t.Errorf("w = %v", w)
	}
}

func TestDenseRoundTrip(t *testing.T) {
	s := mustSparse(t, []int32{1, 3}, []float64{5, 7})
	if !reflect.DeepEqual(s.Dense(5), []float64{0, 5, 0, 7, 0}) {
		t.Error("Dense wrong")
	}
}

func TestNorms(t *testing.T) {
	w := []float64{3, -4}
	if Norm2Sq(w) != 25 {
		t.Error("norms wrong")
	}
	s := mustSparse(t, []int32{0, 1}, []float64{3, -4})
	if s.Norm2Sq() != 25 {
		t.Error("sparse norm wrong")
	}
}

func TestAverageAndSum(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 6}
	dst := make([]float64, 2)
	Average(dst, a, b)
	if !reflect.DeepEqual(dst, []float64{2, 4}) {
		t.Errorf("avg = %v", dst)
	}
	Sum(dst, a, b)
	if !reflect.DeepEqual(dst, []float64{4, 8}) {
		t.Errorf("sum = %v", dst)
	}
}

func TestScaleCopyZero(t *testing.T) {
	w := []float64{1, 2}
	c := Copy(w)
	Scale(w, 3)
	if !reflect.DeepEqual(w, []float64{3, 6}) || !reflect.DeepEqual(c, []float64{1, 2}) {
		t.Error("Scale/Copy wrong")
	}
	Zero(w)
	if !reflect.DeepEqual(w, []float64{0, 0}) {
		t.Error("Zero wrong")
	}
}

func TestAddScaledPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	AddScaled([]float64{1}, []float64{1, 2}, 1)
}

func TestPartitionRangeCoversExactly(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 101} {
		for _, k := range []int{1, 2, 3, 8} {
			covered := 0
			prevEnd := 0
			for i := 0; i < k; i++ {
				s, e := PartitionRange(n, k, i)
				if s != prevEnd {
					t.Fatalf("n=%d k=%d i=%d: start %d != prev end %d", n, k, i, s, prevEnd)
				}
				if e < s {
					t.Fatalf("n=%d k=%d i=%d: end %d < start %d", n, k, i, e, s)
				}
				covered += e - s
				prevEnd = e
			}
			if covered != n || prevEnd != n {
				t.Fatalf("n=%d k=%d: covered %d ended %d", n, k, covered, prevEnd)
			}
		}
	}
}

// randomSparse builds a random sparse vector with indices < dim.
func randomSparse(rng *rand.Rand, dim int) Sparse {
	m := map[int32]float64{}
	for i := 0; i < rng.Intn(dim); i++ {
		m[int32(rng.Intn(dim))] = rng.NormFloat64()
	}
	return SparseFromMap(m)
}

func TestDotLinearityProperty(t *testing.T) {
	// Property: Dot(w, x) is linear in w: Dot(aw+bw', x) = a·Dot(w,x)+b·Dot(w',x).
	rng := rand.New(rand.NewSource(1))
	prop := func(a, b float64, seed int64) bool {
		a = math.Mod(a, 10)
		b = math.Mod(b, 10)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		const dim = 30
		x := randomSparse(r, dim)
		w1 := make([]float64, dim)
		w2 := make([]float64, dim)
		for i := range w1 {
			w1[i], w2[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		comb := make([]float64, dim)
		for i := range comb {
			comb[i] = a*w1[i] + b*w2[i]
		}
		lhs := Dot(comb, x)
		rhs := a*Dot(w1, x) + b*Dot(w2, x)
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(rhs))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAxpyDotConsistencyProperty(t *testing.T) {
	// Property: after w += alpha*x (dense-expanded), Dot(w, y) changes by
	// alpha * <x, y> for any sparse y.
	prop := func(alpha float64, seed int64) bool {
		alpha = math.Mod(alpha, 5)
		if math.IsNaN(alpha) {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		const dim = 25
		x := randomSparse(r, dim)
		y := randomSparse(r, dim)
		w := make([]float64, dim)
		for i := range w {
			w[i] = r.NormFloat64()
		}
		before := Dot(w, y)
		Axpy(alpha, x, w)
		after := Dot(w, y)
		xy := 0.0
		xd := x.Dense(dim)
		for i, ix := range y.Ind {
			xy += xd[ix] * y.Val[i]
		}
		return math.Abs((after-before)-alpha*xy) < 1e-9*(1+math.Abs(after))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAverageIsMeanProperty(t *testing.T) {
	// Property: for k copies of the same model, Average is the identity; and
	// Average of {m, -m} is zero.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		m := make([]float64, n)
		neg := make([]float64, n)
		for i := range m {
			m[i] = r.NormFloat64()
			neg[i] = -m[i]
		}
		dst := make([]float64, n)
		Average(dst, m, m, m)
		for i := range dst {
			if math.Abs(dst[i]-m[i]) > 1e-12 {
				return false
			}
		}
		Average(dst, m, neg)
		for i := range dst {
			if math.Abs(dst[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDotSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const dim = 1 << 20
	w := make([]float64, dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	m := map[int32]float64{}
	for i := 0; i < 100; i++ {
		m[int32(rng.Intn(dim))] = rng.NormFloat64()
	}
	x := SparseFromMap(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(w, x)
	}
}

func TestEqTol(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},                          // exact equality, zero tolerance
		{0, 1e-12, 1e-9, true},                   // absolute bound near zero
		{0, 1e-6, 1e-9, false},                   // outside absolute bound
		{1e9, 1e9 * (1 + 1e-12), 1e-9, true},     // relative bound for large magnitudes
		{1e9, 1e9 * (1 + 1e-6), 1e-9, false},     // outside relative bound
		{math.Inf(1), math.Inf(1), 1e-9, true},   // equal infinities
		{math.Inf(1), math.Inf(-1), 1e-9, false}, // opposite infinities
		{math.NaN(), math.NaN(), 1e-9, false},    // NaN never equals
		{0.1 + 0.2, 0.3, 1e-12, true},            // classic rounding case
	}
	for _, c := range cases {
		if got := EqTol(c.a, c.b, c.tol); got != c.want {
			t.Errorf("EqTol(%g, %g, %g) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}
