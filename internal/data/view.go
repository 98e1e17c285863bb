package data

import (
	"fmt"
	"slices"

	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// View is a contiguous row range of a CSR arena — the one dataset type the
// trainers, the optimizers and the evaluator hold. A partition is a View
// over its own arena; mini-batch windows and evaluation blocks are sub-Views
// sharing the same slabs, so re-batching per superstep is pointer arithmetic
// on rowPtr, never a slice copy. The zero View is an empty dataset.
//
// Views are the entry point to the slab kernels (AddGradient, LossRows,
// SGDPassPlain, ...): a kernel streams the ind/val slabs of the underlying
// arena across [lo, hi) directly. Code that needs one row as a glm.Example
// (AdaGrad, SVRG, the eager-L2 ablation) asks for it with Example,
// which builds it from the slabs without allocating.
type View struct {
	c      *CSR
	lo, hi int
}

// View returns the whole arena as a View.
func (c *CSR) View() View { return View{c: c, lo: 0, hi: c.NumRows()} }

// ViewOf packs the examples into a fresh arena and returns its full View.
func ViewOf(examples []glm.Example) View { return PackExamples(examples).View() }

// NumRows returns the number of rows in the view.
func (v View) NumRows() int { return v.hi - v.lo }

// NNZ returns the total stored nonzeros of the view's rows in O(1), via the
// arena row pointers. It equals glm.NNZTotal over the rows exactly, so
// virtual-charge work formulas can use it without changing any cost.
func (v View) NNZ() int {
	if v.c == nil {
		return 0
	}
	return v.c.rowPtr[v.hi] - v.c.rowPtr[v.lo]
}

// Example returns row i (relative to the view) as a glm.Example backed by
// the arena's slabs. The slices are full three-index views: a caller
// appending to a row would allocate rather than clobber its neighbour.
func (v View) Example(i int) glm.Example {
	if i < 0 || i >= v.NumRows() {
		panic(fmt.Sprintf("data: View.Example(%d) of %d rows", i, v.NumRows()))
	}
	c, r := v.c, v.lo+i
	lo, hi := c.rowPtr[r], c.rowPtr[r+1]
	return glm.Example{Label: c.labels[r], X: vec.Sparse{Ind: c.ind[lo:hi:hi], Val: c.val[lo:hi:hi]}}
}

// Sub returns the sub-view of rows [lo, hi) relative to this view — the
// zero-copy batch window of the trainer inner loops.
func (v View) Sub(lo, hi int) View {
	if lo < 0 || hi < lo || v.lo+hi > v.hi {
		panic(fmt.Sprintf("data: View.Sub(%d, %d) of %d rows", lo, hi, v.NumRows()))
	}
	return View{c: v.c, lo: v.lo + lo, hi: v.lo + hi}
}

// AppendTouched appends to dst the distinct column indices below len(mark)
// that the view's rows hold — the coordinates a kernel pass over the view
// with a len(mark)-dimensional model reads or writes. Larger indices are
// dropped exactly as the kernels truncate them (rows are ascending, so the
// in-range entries of a row are its prefix). Indices already in dst count as
// present, so appending a second view's set yields the union of the two.
//
// mark is caller-owned scratch, all 0 on entry and on return; dst must
// already be distinct and in range. The cost is the view's nonzeros plus
// len(dst), never the dimension. Whether an index was seen before is as
// good as random on skewed data, so the loop does not branch on it: every
// in-range index is written at dst's end, which advances only past a new one.
func (v View) AppendTouched(dst []int32, mark []uint8) []int32 {
	for _, j := range dst {
		mark[j] = 1
	}
	if v.c != nil {
		ind := v.c.ind[v.c.rowPtr[v.lo]:v.c.rowPtr[v.hi]]
		n := int32(len(mark))
		k := len(dst)
		out := slices.Grow(dst, len(ind))[:k+len(ind)]
		for _, j := range ind {
			if j < n {
				out[k] = j
				k += int(mark[j] ^ 1)
				mark[j] = 1
			}
		}
		dst = out[:k]
	}
	for _, j := range dst {
		mark[j] = 0
	}
	return dst
}
