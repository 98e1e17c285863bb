// Package vec provides the sparse/dense vector kernels used throughout the
// GLM trainers: dot products between a dense model and sparse examples,
// axpy-style updates, norms, and dense model combination (averaging and
// summation). The kernels are deliberately simple, allocation-free in the
// hot paths, and written against the representation machine-learning
// datasets actually use: rows as sorted (index, value) pairs.
package vec

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Sparse is a sparse vector stored as parallel slices of strictly
// increasing indices and their values. The zero value is an empty vector.
type Sparse struct {
	Ind []int32
	Val []float64
}

// NewSparse validates and returns a sparse vector over the given parallel
// slices. It returns an error if the slices differ in length, an index is
// negative, or the indices are not strictly increasing.
func NewSparse(ind []int32, val []float64) (Sparse, error) {
	if len(ind) != len(val) {
		return Sparse{}, fmt.Errorf("vec: %d indices but %d values", len(ind), len(val))
	}
	prev := int32(-1)
	for i, ix := range ind {
		if ix < 0 {
			return Sparse{}, fmt.Errorf("vec: negative index %d at position %d", ix, i)
		}
		if ix <= prev {
			return Sparse{}, fmt.Errorf("vec: indices not strictly increasing at position %d (%d after %d)", i, ix, prev)
		}
		prev = ix
	}
	return Sparse{Ind: ind, Val: val}, nil
}

// SparseFromMap builds a sparse vector from an index->value map, dropping
// exact zeros and sorting indices.
func SparseFromMap(m map[int32]float64) Sparse {
	ind := make([]int32, 0, len(m))
	for ix, v := range m {
		if v != 0 {
			ind = append(ind, ix)
		}
	}
	slices.Sort(ind)
	val := make([]float64, len(ind))
	for i, ix := range ind {
		val[i] = m[ix]
	}
	return Sparse{Ind: ind, Val: val}
}

// NNZ returns the number of stored entries.
func (s Sparse) NNZ() int { return len(s.Ind) }

// MaxIndex returns the largest index stored, or -1 for an empty vector.
func (s Sparse) MaxIndex() int32 {
	if len(s.Ind) == 0 {
		return -1
	}
	return s.Ind[len(s.Ind)-1]
}

// At returns the value at index ix (zero if not stored).
func (s Sparse) At(ix int32) float64 {
	i := sort.Search(len(s.Ind), func(k int) bool { return s.Ind[k] >= ix })
	if i < len(s.Ind) && s.Ind[i] == ix {
		return s.Val[i]
	}
	return 0
}

// Dense expands the vector to a dense slice of length n.
func (s Sparse) Dense(n int) []float64 {
	d := make([]float64, n)
	for i, ix := range s.Ind {
		d[ix] = s.Val[i]
	}
	return d
}

// Norm2Sq returns the squared Euclidean norm of the sparse vector.
func (s Sparse) Norm2Sq() float64 {
	sum := 0.0
	for _, v := range s.Val {
		sum += v * v
	}
	return sum
}

// Dot returns the inner product of a dense vector w and a sparse vector x.
// Indices of x beyond len(w) contribute zero, which lets trainers use models
// sized to the dataset's feature count even when an example mentions a
// higher index (as happens with hashed features).
func Dot(w []float64, x Sparse) float64 {
	sum := 0.0
	n := int32(len(w))
	for i, ix := range x.Ind {
		if ix >= n {
			break
		}
		sum += w[ix] * x.Val[i]
	}
	return sum
}

// Axpy performs w += alpha * x for sparse x, ignoring indices beyond len(w).
func Axpy(alpha float64, x Sparse, w []float64) {
	n := int32(len(w))
	for i, ix := range x.Ind {
		if ix >= n {
			break
		}
		w[ix] += alpha * x.Val[i]
	}
}

// Scale multiplies every element of w by alpha in place.
func Scale(w []float64, alpha float64) {
	for i := range w {
		w[i] *= alpha
	}
}

// ScaleTo writes dst[i] = alpha*src[i] — the materialization kernel of the
// lazily scaled representation, fused so it needs neither a copy nor a
// second pass. dst and src may be the same slice.
func ScaleTo(dst []float64, alpha float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vec: ScaleTo length mismatch %d != %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = alpha * v
	}
}

// ScaleAxpy performs w = alpha*w + beta*x for sparse x in a single dense
// pass, merging the sparse updates into the scaling sweep instead of
// touching w twice. It is the fused form of Scale(w, alpha) followed by
// Axpy(beta, x, w) and is bit-identical to that composition (each element
// still sees exactly one multiply, then at most one multiply-add, in the
// same order). Indices of x beyond len(w) are ignored, matching Axpy.
func ScaleAxpy(w []float64, alpha float64, beta float64, x Sparse) {
	k := 0
	for j := range w {
		w[j] *= alpha
		if k < len(x.Ind) && x.Ind[k] == int32(j) {
			w[j] += beta * x.Val[k]
			k++
		}
	}
}

// DotNorm returns <w, x> and ||x||² in one pass over x's nonzeros — the
// margin and the example norm that normalized-update rules need together.
// Each sum accumulates in the same order as the unfused Dot and
// Sparse.Norm2Sq, so the results are bit-identical to calling them
// separately.
func DotNorm(w []float64, x Sparse) (dot, norm2 float64) {
	n := int32(len(w))
	for i, ix := range x.Ind {
		v := x.Val[i]
		norm2 += v * v
		if ix < n {
			dot += w[ix] * v
		}
	}
	return dot, norm2
}

// Dot2 returns <a, x> and <b, x> in one pass over x's nonzeros — the two
// margins SVRG's corrected step evaluates per example (current model and
// snapshot). Both sums accumulate in the same order as separate Dot calls,
// so the results are bit-identical. a and b must have equal length.
func Dot2(a, b []float64, x Sparse) (da, db float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot2 length mismatch %d != %d", len(a), len(b)))
	}
	n := int32(len(a))
	for i, ix := range x.Ind {
		if ix >= n {
			break
		}
		v := x.Val[i]
		da += a[ix] * v
		db += b[ix] * v
	}
	return da, db
}

// AddScaled performs dst += alpha * src for equally sized dense vectors.
func AddScaled(dst, src []float64, alpha float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vec: AddScaled length mismatch %d != %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += alpha * v
	}
}

// Copy returns a fresh copy of w.
func Copy(w []float64) []float64 {
	c := make([]float64, len(w))
	copy(c, w)
	return c
}

// Zero sets every element of w to zero, preserving capacity.
func Zero(w []float64) {
	for i := range w {
		w[i] = 0
	}
}

// Norm2Sq returns the squared Euclidean norm of dense w.
func Norm2Sq(w []float64) float64 {
	sum := 0.0
	for _, v := range w {
		sum += v * v
	}
	return sum
}

// EqTol reports whether a and b are equal to within tol: either absolutely
// or relative to the larger magnitude, whichever bound is looser. It is the
// comparison convergence checks must use instead of ==/!= on floats (the
// floateq analyzer flags those): after reordered summation two
// mathematically equal values routinely differ in the last few ulps.
func EqTol(a, b, tol float64) bool {
	if a == b { //mlstar:nolint floateq -- exact compare intentional: fast path, also handles equal infinities
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	if math.IsInf(diff, 0) || math.IsNaN(diff) {
		return false // opposite infinities or NaN: tol*Inf below would accept them
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// Norm1 returns the L1 norm of dense w.
func Norm1(w []float64) float64 {
	sum := 0.0
	for _, v := range w {
		sum += math.Abs(v)
	}
	return sum
}

// Average overwrites dst with the element-wise mean of the given models,
// which must all have the same length as dst. It is the model-averaging
// kernel of the SendModel paradigm.
func Average(dst []float64, models ...[]float64) {
	if len(models) == 0 {
		panic("vec: Average of zero models")
	}
	Zero(dst)
	for _, m := range models {
		AddScaled(dst, m, 1)
	}
	Scale(dst, 1/float64(len(models)))
}

// Sum overwrites dst with the element-wise sum of the given models — the
// model-summation rule used by (unstarred) Petuum.
func Sum(dst []float64, models ...[]float64) {
	if len(models) == 0 {
		panic("vec: Sum of zero models")
	}
	Zero(dst)
	for _, m := range models {
		AddScaled(dst, m, 1)
	}
}

// Slice bounds for partitioning a model of length n into k near-equal
// contiguous ranges; partition i is [start, end). Every element belongs to
// exactly one partition and partition sizes differ by at most one — the
// model partitioning used by Reduce-Scatter and by parameter servers.
func PartitionRange(n, k, i int) (start, end int) {
	if k <= 0 || i < 0 || i >= k {
		panic(fmt.Sprintf("vec: PartitionRange(n=%d, k=%d, i=%d)", n, k, i))
	}
	base, rem := n/k, n%k
	start = i*base + min(i, rem)
	end = start + base
	if i < rem {
		end++
	}
	return start, end
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
