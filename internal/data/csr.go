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
	c := &CSR{
		rowPtr: make([]int, len(examples)+1),
		ind:    make([]int32, 0, nnz),
		val:    make([]float64, 0, nnz),
		rows:   make([]glm.Example, len(examples)),
		labels: make([]float64, len(examples)),
		maxInd: -1,
	}
	for i, e := range examples {
		c.ind = append(c.ind, e.X.Ind...)
		c.val = append(c.val, e.X.Val...)
		c.rowPtr[i+1] = len(c.ind)
		// Indices are strictly ascending within a row, so the row max is its
		// last index.
		if m := e.X.MaxIndex(); m > c.maxInd {
			c.maxInd = m
		}
	}
	for i, e := range examples {
		lo, hi := c.rowPtr[i], c.rowPtr[i+1]
		// Full three-index views: a kernel appending to a row slice would
		// allocate rather than clobber its neighbour.
		c.rows[i] = glm.Example{Label: e.Label, X: vec.Sparse{Ind: c.ind[lo:hi:hi], Val: c.val[lo:hi:hi]}}
		c.labels[i] = e.Label
	}
	return c
}

// Rows returns the per-row example views, backed by the shared slabs.
func (c *CSR) Rows() []glm.Example { return c.rows }

// NumRows returns the number of rows.
func (c *CSR) NumRows() int { return len(c.rows) }

// NNZ returns the total number of stored nonzeros.
func (c *CSR) NNZ() int { return len(c.ind) }
