// Feature-major mirror and the two-pass gradient stream.
//
// The CSR arena is row-major: a gradient pass finishes coordinate j only
// when the *last* row touching j has been processed, so nothing can ship
// until the whole pass ends. The featMajor mirror stores the same nonzeros
// column-blocked (CSC): pass 1 computes every row's loss derivative once
// (row order, exactly the margins of the fused CSR pass), pass 2 then
// accumulates the gradient coordinate range by coordinate range — so the
// first coordinate block is final while later blocks are still uncomputed,
// and the pipelined Reduce-Scatter can put it on the wire immediately
// (allreduce.AverageProduced).
//
// Bit-identity argument, per coordinate j: the CSR path adds the rows
// touching j in ascending row order (rows with zero derivative skipped by
// the `d != 0` guard). The mirror stores each column's entries in ascending
// row order — a row-major scatter into column buckets preserves row order —
// and applies the same guard with the same derivative bits, so g[j] is the
// identical left-to-right float64 addition chain. Model truncation is
// handled by never visiting columns ≥ len(model): within a column every
// entry has the same index, so the per-row "first index ≥ len(model)"
// prefix cut of vec.Dot/vec.Axpy removes exactly the columns the stream
// skips.
package data

import "mllibstar/internal/glm"

// featMajor is the column-blocked (CSC) mirror of a CSR row range: entry p
// of column j is row rows[p] (view-relative, ascending within the column)
// with value val[p]. Built once per partition View and cached on the arena.
type featMajor struct {
	colPtr []int
	rows   []int32
	val    []float64
	cols   int
}

// featMajorFor returns the cached mirror of arena rows [lo, hi), building
// it on first use. The build is a counting sort over the ind slab —
// deterministic, O(nnz + cols) — and safe under concurrent first callers.
func (c *CSR) featMajorFor(lo, hi int) *featMajor {
	c.featMu.Lock()
	defer c.featMu.Unlock()
	if c.feat == nil {
		c.feat = map[[2]int]*featMajor{}
	}
	if f, ok := c.feat[[2]int{lo, hi}]; ok {
		return f
	}
	f := buildFeatMajor(c, lo, hi)
	c.feat[[2]int{lo, hi}] = f
	return f
}

func buildFeatMajor(c *CSR, lo, hi int) *featMajor {
	cols := int(c.maxInd) + 1
	nnz := c.rowPtr[hi] - c.rowPtr[lo]
	f := &featMajor{
		colPtr: make([]int, cols+1),
		rows:   make([]int32, nnz),
		val:    make([]float64, nnz),
		cols:   cols,
	}
	base := c.rowPtr[lo]
	for p := base; p < c.rowPtr[hi]; p++ {
		f.colPtr[c.ind[p]+1]++
	}
	for j := 0; j < cols; j++ {
		f.colPtr[j+1] += f.colPtr[j]
	}
	next := make([]int, cols)
	copy(next, f.colPtr[:cols])
	for r := lo; r < hi; r++ {
		for p := c.rowPtr[r]; p < c.rowPtr[r+1]; p++ {
			j := c.ind[p]
			q := next[j]
			next[j]++
			f.rows[q] = int32(r - lo)
			f.val[q] = c.val[p]
		}
	}
	return f
}

// GradStream is a two-pass gradient producer over one partition View,
// implementing the allreduce.Producer contract:
//
//	Prepare      pass 1 — per-row derivatives (and, withLoss, the loss sum),
//	             pure: reads only w and the arena.
//	Produce(l,h) pass 2 for coordinates [l, h) — column-order accumulation
//	             into g, plus the trailing loss slot when h == len(g).
//	Work/PrepareWork — structural virtual-time charges summing to the
//	             totalWork the non-overlapped path would charge in one piece.
//
// Produced blocks may arrive in any order and each coordinate range must be
// produced exactly once; the union of all Produce calls must cover
// [0, len(g)). The result — gradient and loss bits — is Float64bits-
// identical to GradAndLoss (withLoss) or AddGradient (without). The block
// pass allocates nothing.
type GradStream struct {
	obj      glm.Objective
	w        []float64
	v        View
	g        []float64
	withLoss bool
	dim      int // gradient coordinates in g (len(g)-1 when withLoss)
	f        *featMajor
	derivs   []float64
	lossSum  float64
	half     float64 // charge for each of the two passes
	nnz      float64 // mirrored entries, for distributing pass-2 charges
}

// NewGradStream builds the producer for g += Σ l'(<w,x>, y)·x over the
// view. When withLoss is set, g's final slot additionally receives
// Σ l(<w,x>, y) — the [gradient ; loss] partial of the L-BFGS superstep —
// and the gradient occupies g[:len(g)-1]. totalWork is the virtual charge
// the equivalent single-pass call would make (e.g. 2·NNZ for GradAndLoss,
// NNZ for AddGradient); the stream splits it evenly between the passes.
func NewGradStream(obj glm.Objective, w []float64, v View, g []float64, withLoss bool, totalWork float64) *GradStream {
	gs := &GradStream{obj: obj, w: w, v: v, g: g, withLoss: withLoss, dim: len(g), half: totalWork / 2}
	if withLoss {
		gs.dim--
	}
	if v.c != nil && v.NumRows() > 0 {
		gs.f = v.c.featMajorFor(v.lo, v.hi)
		gs.derivs = make([]float64, v.NumRows())
		gs.nnz = float64(len(gs.f.rows))
	}
	return gs
}

// Prepare runs pass 1: every row's margin is computed once and feeds both
// the derivative and (withLoss) the loss value — the exact arithmetic of the
// fused CSR pass, in row order. Pure: reads only w and the arena.
func (gs *GradStream) Prepare() {
	if gs.f == nil {
		return
	}
	gs.lossSum = derivRows(gs.obj.Loss, gs.withLoss, gs.v.c, gs.v.lo, gs.v.hi, gs.w, gs.derivs)
}

// PrepareWork is the virtual charge of pass 1: half the stream's totalWork.
func (gs *GradStream) PrepareWork() float64 { return gs.half }

// Produce runs pass 2 for coordinates [lo, hi): each column in range
// accumulates its stored entries in ascending row order under the `d != 0`
// guard — per coordinate the identical addition chain as the row-major
// pass. When the range includes g's trailing loss slot, the pass-1 loss sum
// is installed there. Pure and allocation-free: writes only g[lo:hi].
func (gs *GradStream) Produce(lo, hi int) {
	if gs.withLoss && hi == len(gs.g) {
		gs.g[gs.dim] = gs.lossSum
	}
	if gs.f == nil {
		return
	}
	colHi := min(hi, gs.f.cols, gs.dim, len(gs.w))
	if lo >= colHi {
		return
	}
	colPtr, rows, val, derivs, g := gs.f.colPtr, gs.f.rows, gs.f.val, gs.derivs, gs.g
	for j := lo; j < colHi; j++ {
		s, e := colPtr[j], colPtr[j+1]
		acc := g[j]
		for p := s; p < e; p++ {
			if d := derivs[rows[p]]; d != 0 {
				acc += d * val[p]
			}
		}
		g[j] = acc
	}
}

// Work is the virtual charge of Produce(lo, hi): the pass-2 half of
// totalWork, distributed over coordinate ranges by their share of the
// mirrored nonzeros. Structural: it depends on the sparsity pattern only,
// never on the values.
func (gs *GradStream) Work(lo, hi int) float64 {
	if gs.f == nil || gs.nnz == 0 {
		return 0
	}
	clo, chi := min(lo, gs.f.cols), min(hi, gs.f.cols)
	return gs.half * float64(gs.f.colPtr[chi]-gs.f.colPtr[clo]) / gs.nnz
}
