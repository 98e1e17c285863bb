package detrand

import (
	"math"
	"math/rand"
	"testing"
)

// zipfShapes are the (s, v, imax) the repository's generator builds: data's
// skew 1.7 (and 1.1 for a spec without one) with v = 8, over the column
// counts of the benchmark workloads, the Table I presets at their default and
// test scales, and the small tables the tests generate.
var zipfShapes = []struct {
	s, v float64
	imax uint64
}{
	{1.7, 8, 9_999}, {1.7, 8, 14_999}, {1.7, 8, 199_999}, // compute8/scale128, ps8, wide8
	{1.7, 8, 999}, {1.7, 8, 3_231}, {1.7, 8, 29_889}, {1.7, 8, 54_685}, {1.7, 8, 51_120}, // presets at 1000
	{1.7, 8, 499}, {1.7, 8, 99}, {1.7, 8, 15}, {1.7, 8, 0},
	{1.1, 8, 9_999}, {1.1, 8, 499}, {1.1, 8, 0},
}

// zipfDraws holds n draws of NewZipf to rand.NewZipf's from the same seed,
// then the next raw draw of both sources, so that a draw consumed on one side
// and not the other shows even when the values agree.
func zipfDraws(t testing.TB, seed int64, s, v float64, imax uint64, n int) {
	t.Helper()
	ref := rand.New(rand.NewSource(seed))
	want := rand.NewZipf(ref, s, v, imax)
	got := NewZipf(New(seed), s, v, imax)
	for i := 0; i < n; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d s %g v %g imax %d: draw %d is %d, math/rand's %d", seed, s, v, imax, i, g, w)
		}
	}
	if g, w := got.r.Int63(), ref.Int63(); g != w {
		t.Fatalf("seed %d s %g v %g imax %d: after %d draws the sources differ", seed, s, v, imax, n)
	}
}

// TestZipfEqualsMathRand holds NewZipf to rand.NewZipf, value for value and
// draw for draw, at every shape the repository generates, over several seeds.
func TestZipfEqualsMathRand(t *testing.T) {
	for _, sh := range zipfShapes {
		for _, seed := range []int64{1, 23, -7} {
			zipfDraws(t, seed, sh.s, sh.v, sh.imax, 10_000)
		}
	}
}

// TestZipfBucketEdges checks every certain bucket where an error would show
// first: at its two edges and a few ulps inside them, math/rand's loop must
// accept the first draw with the bucket's k.
func TestZipfBucketEdges(t *testing.T) {
	for _, sh := range []struct {
		s, v float64
		imax uint64
	}{{1.7, 8, 9_999}, {1.1, 8, 499}, {3.5, 1, 1_000_000}} {
		z := NewZipf(New(1), sh.s, sh.v, sh.imax)
		certain := 0
		for b, k := range z.table {
			if k < 0 {
				continue
			}
			certain++
			lo, hi := float64(b)/zipfBuckets, float64(b+1)/zipfBuckets
			var probes []float64
			for i, r, q := 0, lo, math.Nextafter(hi, 0); i < 4; i, r, q = i+1, math.Nextafter(r, 1), math.Nextafter(q, 0) {
				probes = append(probes, r, q)
			}
			for _, r := range probes {
				if int(r*zipfBuckets) != b {
					t.Fatalf("%v: probe %v lies outside bucket %d", sh, r, b)
				}
				if got, ok := z.accept(r); !ok || math.Float64bits(got) != math.Float64bits(float64(k)) {
					t.Fatalf("%v: bucket %d holds %d, math/rand's loop gives %v (accepted %v) at r = %v", sh, b, k, got, ok, r)
				}
			}
		}
		if certain < zipfBuckets/2 {
			t.Errorf("%v: only %d of %d buckets certain", sh, certain, zipfBuckets)
		}
	}
}

func TestZipfInvalidIsNil(t *testing.T) {
	for _, c := range [][2]float64{{1, 8}, {0.5, 8}, {1.7, 0.5}} {
		if z := NewZipf(New(1), c[0], c[1], 10); z != nil {
			t.Errorf("NewZipf(s %g, v %g) = %v, want nil as math/rand", c[0], c[1], z)
		}
	}
}

// FuzzZipfEqualsMathRand holds NewZipf to rand.NewZipf over s ∈ (1, 4],
// v ∈ [1, 64] and imax ≤ 10⁶, the inputs folded into those ranges.
func FuzzZipfEqualsMathRand(f *testing.F) {
	f.Add(int64(1), 1.7, 8.0, uint64(9_999))
	f.Add(int64(23), 1.1, 8.0, uint64(199_999))
	f.Add(int64(-5), 4.0, 1.0, uint64(0))
	f.Add(int64(7), 1.0001, 64.0, uint64(1_000_000))
	f.Fuzz(func(t *testing.T, seed int64, s, v float64, imax uint64) {
		if math.IsNaN(s) || math.IsInf(s, 0) || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip()
		}
		s = 1 + math.Max(math.Abs(math.Mod(s, 3)), 0x1p-20)
		v = 1 + math.Abs(math.Mod(v, 63))
		imax %= 1_000_001
		zipfDraws(t, seed, s, v, imax, 2_000)
	})
}
