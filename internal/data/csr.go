package data

import (
	"sync"

	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// CSR is a row-blocked compressed-sparse-row arena for a labelled dataset:
// every row's feature indices live in one shared int32 slab and every value
// in one shared float64 slab, with rowPtr marking row boundaries. The
// per-row glm.Example views are precomputed once, so iterating examples —
// sequentially or in contiguous mini-batch blocks — touches memory in slab
// order with zero allocations, instead of chasing two heap pointers per row
// the way independently allocated rows do. Trainers are unaffected by the
// change of layout: they consume []glm.Example views and the values are
// bit-copies of the originals.
type CSR struct {
	rowPtr []int
	ind    []int32
	val    []float64
	rows   []glm.Example
	// labels duplicates the per-row labels contiguously for the slab
	// kernels: loading rows[r].Label strides the 56-byte Example headers
	// (one cache line per row), while the dedicated slab packs eight labels
	// per line — measurably cheaper in the margin→deriv loop.
	labels []float64
	// maxInd is the largest feature index stored (-1 when empty). The slab
	// kernels hoist the vec.Dot/vec.Axpy bounds truncation out of the inner
	// loop with it: when maxInd < len(model) no row can be truncated, so the
	// per-row out-of-range scan is skipped entirely.
	maxInd int32

	// feat caches the feature-major (CSC) mirrors of row ranges, keyed
	// {lo, hi}, built lazily by featMajorFor for the gradient stream. A
	// partition View's range is stable across supersteps, so each range is
	// sorted once per run.
	featMu sync.Mutex
	feat   map[[2]int]*featMajor
}

// PackExamples copies the examples, in order, into a fresh CSR arena.
func PackExamples(examples []glm.Example) *CSR {
	nnz := glm.NNZTotal(examples)
	rowPtr := make([]int, len(examples)+1)
	ind := make([]int32, 0, nnz)
	val := make([]float64, 0, nnz)
	labels := make([]float64, len(examples))
	for i, e := range examples {
		ind = append(ind, e.X.Ind...)
		val = append(val, e.X.Val...)
		rowPtr[i+1] = len(ind)
		labels[i] = e.Label
	}
	return newCSR(rowPtr, ind, val, labels)
}

// newCSR completes an arena whose slabs are filled — rowPtr with one entry
// per row and one more, each row's indices strictly ascending — with its
// per-row views and maxInd.
func newCSR(rowPtr []int, ind []int32, val []float64, labels []float64) *CSR {
	c := &CSR{rowPtr: rowPtr, ind: ind, val: val, labels: labels, rows: make([]glm.Example, len(labels)), maxInd: -1}
	for i, y := range labels {
		lo, hi := rowPtr[i], rowPtr[i+1]
		// Full three-index views: a kernel appending to a row slice would
		// allocate rather than clobber its neighbour.
		c.rows[i] = glm.Example{Label: y, X: vec.Sparse{Ind: ind[lo:hi:hi], Val: val[lo:hi:hi]}}
		// The row max is its last index.
		if hi > lo && ind[hi-1] > c.maxInd {
			c.maxInd = ind[hi-1]
		}
	}
	return c
}

// Rows returns the per-row example views, backed by the shared slabs.
func (c *CSR) Rows() []glm.Example { return c.rows }

// NumRows returns the number of rows.
func (c *CSR) NumRows() int { return len(c.rows) }

// NNZ returns the total number of stored nonzeros.
func (c *CSR) NNZ() int { return len(c.ind) }
