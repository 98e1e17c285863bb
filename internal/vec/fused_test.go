package vec

import (
	"math"
	"math/rand"
	"testing"
)

// randSparse builds a random sparse vector with indices below maxIx.
func randSparse(rng *rand.Rand, maxIx int) Sparse {
	var ind []int32
	var val []float64
	for ix := 0; ix < maxIx; ix++ {
		if rng.Float64() < 0.3 {
			ind = append(ind, int32(ix))
			v := rng.NormFloat64()
			if rng.Float64() < 0.05 {
				v = math.Copysign(0, -1) // exercise the -0 edge
			}
			val = append(val, v)
		}
	}
	return Sparse{Ind: ind, Val: val}
}

func randDense(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return w
}

// TestScaleAxpyBitIdentical asserts the fused kernel matches the
// Scale-then-Axpy composition bit for bit, including on examples whose
// indices exceed the model length.
func TestScaleAxpyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(40)
		x := randSparse(rng, dim+5) // some indices beyond len(w)
		w := randDense(rng, dim)
		alpha := rng.NormFloat64()
		beta := rng.NormFloat64()

		want := Copy(w)
		Scale(want, alpha)
		Axpy(beta, x, want)

		got := Copy(w)
		ScaleAxpy(got, alpha, beta, x)

		for j := range want {
			if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
				t.Fatalf("trial %d: ScaleAxpy[%d] = %x, want %x", trial, j,
					math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	}
}

// TestDotNormBitIdentical asserts DotNorm matches Dot + Sparse.Norm2Sq.
func TestDotNormBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(40)
		x := randSparse(rng, dim+5)
		w := randDense(rng, dim)
		dot, norm2 := DotNorm(w, x)
		if math.Float64bits(dot) != math.Float64bits(Dot(w, x)) {
			t.Fatalf("trial %d: dot %g != %g", trial, dot, Dot(w, x))
		}
		if math.Float64bits(norm2) != math.Float64bits(x.Norm2Sq()) {
			t.Fatalf("trial %d: norm2 %g != %g", trial, norm2, x.Norm2Sq())
		}
	}
}

// TestDot2BitIdentical asserts Dot2 matches two separate Dot calls.
func TestDot2BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(40)
		x := randSparse(rng, dim+5)
		a := randDense(rng, dim)
		b := randDense(rng, dim)
		da, db := Dot2(a, b, x)
		if math.Float64bits(da) != math.Float64bits(Dot(a, x)) ||
			math.Float64bits(db) != math.Float64bits(Dot(b, x)) {
			t.Fatalf("trial %d: Dot2 = (%g, %g), want (%g, %g)",
				trial, da, db, Dot(a, x), Dot(b, x))
		}
	}
}

// TestScaleToBitIdentical asserts ScaleTo matches Copy+Scale, including
// in-place use.
func TestScaleToBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		dim := 1 + rng.Intn(40)
		src := randDense(rng, dim)
		alpha := rng.NormFloat64()

		want := Copy(src)
		Scale(want, alpha)

		dst := make([]float64, dim)
		ScaleTo(dst, alpha, src)
		for j := range want {
			if math.Float64bits(want[j]) != math.Float64bits(dst[j]) {
				t.Fatalf("trial %d: ScaleTo[%d] mismatch", trial, j)
			}
		}

		inPlace := Copy(src)
		ScaleTo(inPlace, alpha, inPlace)
		for j := range want {
			if math.Float64bits(want[j]) != math.Float64bits(inPlace[j]) {
				t.Fatalf("trial %d: in-place ScaleTo[%d] mismatch", trial, j)
			}
		}
	}
}

func TestPoolRecyclesZeroed(t *testing.T) {
	p := NewPool()
	a := p.Get(8)
	for i := range a {
		a[i] = float64(i) + 1
	}
	p.Put(a)
	b := p.Get(8)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %g", i, v)
		}
	}
	if c := p.Get(8); &c[0] == &b[0] {
		t.Fatal("pool handed out one buffer twice")
	}
	p.Put(nil) // must be a no-op
	if got := p.Get(3); len(got) != 3 {
		t.Fatalf("Get(3) returned len %d", len(got))
	}
}

func TestPoolCopyOverwritesRecycled(t *testing.T) {
	p := NewPool()
	src := []float64{1, 2, 3, 4}
	fresh := p.Copy(src)
	if &fresh[0] == &src[0] {
		t.Fatal("Copy returned its argument")
	}
	for i := range fresh {
		fresh[i] = -9 // stale contents a recycled buffer carries
	}
	p.Put(fresh)
	got := p.Copy(src[1:])
	if len(got) != 3 || &got[0] == &fresh[0] {
		t.Fatalf("Copy of 3 elements reused the 4-element buffer (len %d)", len(got))
	}
	got = p.Copy(src)
	if &got[0] != &fresh[0] {
		t.Fatal("Copy did not recycle the free buffer of its length")
	}
	for i, v := range got {
		if v != src[i] {
			t.Fatalf("recycled Copy[%d] = %g, want %g", i, v, src[i])
		}
	}
}
