package allreduce_test

import (
	"fmt"
	"math"
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/vec"
)

// TestFoldAddsUntouchedCoordinates pins the one thing a fold over sparse
// chunks may not do: skip the coordinates a chunk does not list. Every
// owner's running sum holds −0 at coordinates where its peers' copies equal
// the reference (+0 there), so the peers ship them as absent entries — and
// adding the decoded +0 still turns the −0 into +0, as the dense exchange
// does. The result must equal, bit for bit, the fold over the full dense
// vectors in ascending sender order (what Enc.Dense used to hand the fold),
// with ref nil and non-nil, at C = 1, 2 and 8, overlapped or not.
func TestFoldAddsUntouchedCoordinates(t *testing.T) {
	const k, dim = 4, 4000
	negZero := math.Copysign(0, -1)
	for _, withRef := range []bool{false, true} {
		// The reference is +0 at every third coordinate. Executor i differs
		// from it at the coordinates j with j%50 == i, so each chunk it sends
		// is a 2 % overlay.
		var ref []float64
		if withRef {
			ref = make([]float64, dim)
			for j := range ref {
				if j%3 != 0 {
					ref[j] = float64(j%7) + 0.25
				}
			}
		}
		base := make([][]float64, k)
		for i := range base {
			base[i] = make([]float64, dim)
			if withRef {
				copy(base[i], ref)
			}
			for j := i; j < dim; j += 50 {
				base[i][j] = float64(i+1) + 0.5
			}
		}
		// j%150 == 30: no executor touches it (30 ≥ k) and the reference is +0.
		var negs []int
		for o := 0; o < k; o++ {
			lo, hi := vec.PartitionRange(dim, k, o)
			for j := lo; j < hi; j++ {
				if j%150 == 30 {
					base[o][j] = negZero
					negs = append(negs, j)
				}
			}
		}
		// The dense fold: own partition, plus every other sender's in
		// ascending order, then the averaging scale.
		want := make([]float64, dim)
		for o := 0; o < k; o++ {
			lo, hi := vec.PartitionRange(dim, k, o)
			acc := want[lo:hi]
			copy(acc, base[o][lo:hi])
			for j := 0; j < k; j++ {
				if j != o {
					vec.AddScaled(acc, base[j][lo:hi], 1)
				}
			}
			vec.Scale(acc, 1/float64(k))
		}
		for _, j := range negs {
			if math.Float64bits(want[j]) != 0 {
				t.Fatalf("setup: the dense fold leaves %v at coordinate %d, want +0", want[j], j)
			}
		}
		requireFold := func(label string, got [][]float64, bytes, denseBytes float64) {
			t.Helper()
			if bytes >= denseBytes {
				t.Errorf("ref=%v %s: %g bytes, not below the dense exchange's %g: no sparse chunk was folded", withRef, label, bytes, denseBytes)
			}
			for i := range got {
				for j := range want {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[j]) {
						t.Fatalf("ref=%v %s: executor %d coord %d is %x, the dense fold gives %x", withRef, label, i, j,
							math.Float64bits(got[i][j]), math.Float64bits(want[j]))
					}
				}
			}
		}

		spec := clusters.Test(k)
		dense, _, denseBytes := collective(t, spec, switches{chunks: 1}, opAverageDelta, base, ref, nil)
		requireFold("dense", dense, 0, denseBytes)
		for _, chunks := range []int{1, 2, 8} {
			got, _, bytes := collective(t, spec, switches{chunks: chunks, sparse: true}, opAverageDelta, base, ref, nil)
			requireFold(fmt.Sprintf("C=%d", chunks), got, bytes, denseBytes)
			if withRef {
				continue // the producing collective has no reference form
			}
			got, _, bytes = collective(t, spec, switches{chunks: chunks, sparse: true, overlap: true}, opProduced, base, nil, nil)
			requireFold(fmt.Sprintf("C=%d overlap", chunks), got, bytes, denseBytes)
		}
	}
}
