package sparse

import (
	"math"
	"testing"
)

// withEnabled runs fn with the package switch in the given state, restoring
// the default (off) afterwards.
func withEnabled(t *testing.T, on bool, fn func()) {
	t.Helper()
	Configure(on)
	defer Configure(false)
	fn()
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestSparseWinsBoundary(t *testing.T) {
	// The switch point: sparse wins iff 12·nnz < 8·n, i.e. nnz < 2n/3.
	// Pin the behavior exactly at and around the boundary.
	cases := []struct {
		n, nnz int
		want   bool
	}{
		{n: 0, nnz: 0, want: false}, // empty: equal size (0 == 0), dense wins ties
		{n: 1, nnz: 0, want: true},  // 0 < 8
		{n: 1, nnz: 1, want: false}, // 12 > 8
		{n: 2, nnz: 1, want: true},  // 12 < 16
		{n: 3, nnz: 2, want: false}, // 24 == 24: tie goes dense (no decode step)
		{n: 3, nnz: 1, want: true},  // 12 < 24
		{n: 6, nnz: 4, want: false}, // 48 == 48 exact tie
		{n: 6, nnz: 3, want: true},  // 36 < 48
		{n: 9, nnz: 6, want: false}, // 72 == 72 exact tie
		{n: 9, nnz: 5, want: true},  // 60 < 72
		{n: 300, nnz: 200, want: false},
		{n: 300, nnz: 199, want: true},
		{n: 1 << 20, nnz: (2 << 20) / 3, want: true},  // 699050: 12·nnz = 8388600 < 8388608
		{n: 1 << 20, nnz: (2<<20)/3 + 1, want: false}, // one entry past the switch
	}
	for _, c := range cases {
		if got := SparseWins(c.n, c.nnz); got != c.want {
			t.Errorf("SparseWins(%d, %d) = %v, want %v", c.n, c.nnz, got, c.want)
		}
	}
}

// TestEncodeSwitchAtBoundary drives the switch through Encode itself: a
// vector whose delta nnz sits exactly at, just under, and just over the
// cutoff must pick the representation the cost model says.
func TestEncodeSwitchAtBoundary(t *testing.T) {
	withEnabled(t, true, func() {
		n := 9 // boundary nnz: 6 (12·6 == 8·9)
		mk := func(nnz int) []float64 {
			d := make([]float64, n)
			for i := 0; i < nnz; i++ {
				d[i] = float64(i + 1)
			}
			return d
		}
		if e := EncodeShared(mk(5), nil); !e.IsSparse() {
			t.Errorf("nnz=5 of n=9: want sparse (60 < 72 bytes), got dense")
		} else if e.WireBytes() != 60 {
			t.Errorf("nnz=5: WireBytes = %v, want 60", e.WireBytes())
		}
		if e := EncodeShared(mk(6), nil); e.IsSparse() {
			t.Errorf("nnz=6 of n=9: exact tie (72 bytes) must stay dense")
		} else if e.WireBytes() != 72 {
			t.Errorf("nnz=6: WireBytes = %v, want 72", e.WireBytes())
		}
		if e := EncodeShared(mk(7), nil); e.IsSparse() {
			t.Errorf("nnz=7 of n=9: want dense (84 > 72 bytes), got sparse")
		}
	})
}

func TestEncodeDisabledIsDense(t *testing.T) {
	// Switch off (the default): even an all-zero vector ships dense.
	d := make([]float64, 100)
	e := EncodeShared(d, nil)
	if e.IsSparse() {
		t.Fatalf("sparse encoding chosen with the switch off")
	}
	if e.WireBytes() != 800 {
		t.Fatalf("WireBytes = %v, want 800", e.WireBytes())
	}
	if got := e.Dense(); &got[0] != &d[0] {
		t.Fatalf("dense EncodeShared must share the caller's buffer")
	}
	if got := e.Decoded(nil, nil); &got[0] != &d[0] {
		t.Fatalf("Decoded must read a dense encoding in place")
	}
}

func TestRoundTripBitwise(t *testing.T) {
	withEnabled(t, true, func() {
		negZero := math.Copysign(0, -1)
		nan := math.NaN()
		cases := []struct {
			name   string
			d, ref []float64
		}{
			{"nil-ref sparse", []float64{0, 1.5, 0, 0, -2.25, 0, 0, 0, 0, 0}, nil},
			{"nil-ref with -0 and NaN", []float64{0, negZero, 0, nan, 0, 0, 0, 0, 0, 0}, nil},
			{"delta vs ref", []float64{1, 2, 3, 4.5, 5, 6, 7, 8, 9, 10}, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
			{"ref with -0 preserved", []float64{negZero, 0, 0, 0, 0, 0, 0, 0, 0, 0}, make([]float64, 10)},
			{"identical to ref", []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}},
			{"dense fallback", []float64{1, 2, 3}, nil},
		}
		for _, c := range cases {
			for _, shared := range []bool{true, false} {
				var e Enc
				if shared {
					e = EncodeShared(c.d, c.ref)
				} else {
					e = EncodeCopy(c.d, c.ref)
				}
				scratch := make([]float64, len(c.d))
				for i := range scratch {
					scratch[i] = 42 // garbage that Decoded must fully overwrite
				}
				got := e.Decoded(scratch, c.ref)
				if !sameBits(got, c.d) {
					t.Errorf("%s (shared=%v): Decoded round trip lost bits: %v != %v", c.name, shared, got, c.d)
				}
				if e.IsSparse() != (e.Dense() == nil) || e.IsSparse() != (&got[0] == &scratch[0]) {
					t.Errorf("%s (shared=%v): sparse=%v but Dense()=%v and Decoded used scratch=%v",
						c.name, shared, e.IsSparse(), e.Dense(), &got[0] == &scratch[0])
				}
				dst := make([]float64, len(c.d))
				for i := range dst {
					dst[i] = 42 // garbage that DecodeInto must fully overwrite
				}
				e.DecodeInto(dst, c.ref)
				if !sameBits(dst, c.d) {
					t.Errorf("%s (shared=%v): DecodeInto lost bits: %v != %v", c.name, shared, dst, c.d)
				}
			}
		}
	})
}

func TestEncodeCopyIndependence(t *testing.T) {
	// EncodeCopy's result must not observe later mutations of d.
	d := []float64{1, 2, 3, 4}
	e := EncodeCopy(d, nil) // switch off: dense copy
	d[0] = 99
	if got := e.Dense(); got[0] != 1 {
		t.Fatalf("EncodeCopy shared the caller's buffer: got %v", got[0])
	}
}

func TestCompressInvariants(t *testing.T) {
	d := []float64{0, 5, 0, -1, 0, 0, 2}
	v := Compress(d, nil)
	if !v.valid() {
		t.Fatalf("Compress produced invalid Vec: %+v", v)
	}
	if v.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", v.NNZ())
	}
	if v.WireBytes() != 36 {
		t.Fatalf("WireBytes = %v, want 36", v.WireBytes())
	}
}

func TestAddIntoMatchesDenseOnTouched(t *testing.T) {
	// On the touched coordinates AddInto must perform exactly the dense
	// kernel's operations in the same (ascending) order.
	d := []float64{0, 0.1, 0, 0.3, 0, 0, 0.7}
	v := Compress(d, nil)
	a := []float64{1, 2, 3, 4, 5, 6, 7}
	b := append([]float64(nil), a...)
	v.AddInto(a, 0.5)
	for j := range b {
		b[j] += 0.5 * d[j]
	}
	for _, ix := range v.Ind {
		if math.Float64bits(a[ix]) != math.Float64bits(b[ix]) {
			t.Fatalf("AddInto differs from dense at %d: %v vs %v", ix, a[ix], b[ix])
		}
	}
}

func TestScaleKeepsEntries(t *testing.T) {
	v := Compress([]float64{0, 2, 0, 4}, nil)
	v.Scale(0)
	if v.NNZ() != 2 {
		t.Fatalf("Scale re-compacted entries: NNZ %d, want 2", v.NNZ())
	}
	out := make([]float64, 4)
	ref := []float64{9, 9, 9, 9}
	v.Overlay(out, ref)
	want := []float64{9, 0, 9, 0} // scaled-to-zero entries still overwrite
	if !sameBits(out, want) {
		t.Fatalf("Overlay after Scale = %v, want %v", out, want)
	}
}

func TestDecodeRefMismatchPanics(t *testing.T) {
	withEnabled(t, true, func() {
		d := make([]float64, 20)
		d[3] = 1
		ref := make([]float64, 20)
		e := EncodeShared(d, ref)
		if !e.IsSparse() {
			t.Fatalf("setup: expected sparse encoding")
		}
		defer func() {
			if recover() == nil {
				t.Fatalf("decoding against a nil ref when encoded against a real one must panic")
			}
		}()
		e.Decoded(make([]float64, 20), nil)
	})
}
