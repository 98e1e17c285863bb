package data

// Kernel bodies: one per kernel, each taking the loss as a glm.Loss value
// and calling it once per row. Every body works on arena rows [lo, hi) and
// follows the same shape:
//
//	rs, re := rowPtr[r], rowPtr[r+1]       // row's slab extent
//	end := first index ≥ len(model), or re // vec.Dot/Axpy truncation
//	margin over ind[rs:end]/val[rs:end]    // index-free: w[ix] * val[p]
//	deriv/value via the loss               // one interface call per row
//	optional axpy over the same prefix     // guarded by d != 0
//	work += re - rs                        // full structural NNZ
//
// The truncation scan runs only when the arena's maxInd reaches the model
// length (trunc below) AND the row's last index is out of range; indices are
// strictly ascending within a row, so the kept prefix is exactly the set
// vec.Dot visits before its `ix >= n` break. Keeping the prefix shared
// between the margin and update loops is safe for the same reason.

import (
	"math"

	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// rowPrefix returns the slab end of row extent [rs, re) after bounds
// truncation against a model of length n — re itself in the common case.
// Inlinable: the scan lives in truncatedEnd, entered only for rows that
// actually truncate.
func rowPrefix(ind []int32, rs, re int, n int32, trunc bool) int {
	if trunc && re > rs && ind[re-1] >= n {
		return truncatedEnd(ind, rs, re, n)
	}
	return re
}

func truncatedEnd(ind []int32, rs, re int, n int32) int {
	end := rs
	for end < re && ind[end] < n {
		end++
	}
	return end
}

// addGrad is AddGradient: g += l'(<w,x>, y) · x.
func addGrad(loss glm.Loss, c *CSR, lo, hi int, w, g []float64) (nnz int) {
	rp, ind, val, lbl := c.rowPtr, c.ind, c.val, c.labels
	n := int32(len(w))
	trunc := c.maxInd >= n
	for r := lo; r < hi; r++ {
		rs, re := rp[r], rp[r+1]
		end := rowPrefix(ind, rs, re, n, trunc)
		rIx, rVal := ind[rs:end], val[rs:end]
		rVal = rVal[:len(rIx)] // same length by construction; lets the compiler drop the rVal[p] bounds checks
		m := 0.0
		for p, ix := range rIx {
			m += w[ix] * rVal[p]
		}
		if d := loss.Deriv(m, lbl[r]); d != 0 {
			for p, ix := range rIx {
				g[ix] += d * rVal[p]
			}
		}
		nnz += re - rs
	}
	return nnz
}

// rowChunk is how many sampled rows addGradRows warms ahead of the rows it
// is computing. On compute8's arena (72 MB, 10 % samples, two threads;
// BenchmarkAddGradientRowsCold) a nonzero costs 19 ns with no warm-up and 13
// with it; one process alternating chunk sizes read 14.4–15.6 ns at 8, 16,
// 32 and 64 rows against 21.7 with none — a plateau, so the constant is not
// a tuning knob: fewer rows overlap fewer misses, more outrun the loads a
// core keeps in flight.
const rowChunk = 16

// addGradRows is AddGradientRows: addGrad over the sampled arena rows
// base+rows[i], in order.
//
// A Bernoulli sample of a partition larger than the cache touches about five
// cold cache lines and often a fresh page per row (rowPtr, label, and the
// row's stretch of ind and of val), and in a plain row loop each miss waits
// for the row before it: the margin's address depends on rowPtr, the axpy on
// the margin. So the rows are taken in chunks of rowChunk, and before a chunk
// is computed — by exactly the loop body of addGrad — the next chunk's lines
// are requested all at once by touchRows, which leaves the cache and TLB
// misses of sixteen rows in flight together while the current rows compute.
// Nothing about the arithmetic moves: w is never written, g only by the
// axpys, which still run in row order with the same d.
func addGradRows(loss glm.Loss, c *CSR, base int, rows []int32, w, g []float64) (nnz int) {
	rp, ind, val, lbl := c.rowPtr, c.ind, c.val, c.labels
	n := int32(len(w))
	trunc := c.maxInd >= n
	for len(rows) > 0 {
		chunk := rows[:min(rowChunk, len(rows))]
		rows = rows[len(chunk):]
		touchRows(c, base, rows[:min(rowChunk, len(rows))])
		for _, ri := range chunk {
			r := base + int(ri)
			rs, re := rp[r], rp[r+1]
			end := rowPrefix(ind, rs, re, n, trunc)
			rIx, rVal := ind[rs:end], val[rs:end]
			rVal = rVal[:len(rIx)] // same length by construction; lets the compiler drop the rVal[p] bounds checks
			m := 0.0
			for p, ix := range rIx {
				m += w[ix] * rVal[p]
			}
			if d := loss.Deriv(m, lbl[r]); d != 0 {
				for p, ix := range rIx {
					g[ix] += d * rVal[p]
				}
			}
			nnz += re - rs
		}
	}
	return nnz
}

// touchRows loads one word of every cache line addGradRows will read for the
// arena rows base+rows[i]: the row's rowPtr pair and label, every 16th index
// and every 8th value of its slab stretch (64-byte lines hold that many) and
// the last of each, which may sit on one line more. Go has no prefetch
// intrinsic; a plain early load is the portable spelling, and an
// out-of-order core keeps issuing the loads behind one that missed. The
// words are folded into the result so the loads are live, and the function
// is not inlined so that the caller, which ignores the result, cannot have
// them removed — without a store to shared memory (the kernels run
// concurrently) and without allocating.
//
//go:noinline
func touchRows(c *CSR, base int, rows []int32) (kept uint64) {
	rp, ind, val, lbl := c.rowPtr, c.ind, c.val, c.labels
	for _, ri := range rows {
		r := base + int(ri)
		rs, re := rp[r], rp[r+1]
		kept += math.Float64bits(lbl[r])
		if rs == re {
			continue
		}
		for p := rs; p < re; p += 16 {
			kept += uint64(ind[p])
		}
		for p := rs; p < re; p += 8 {
			kept += math.Float64bits(val[p])
		}
		kept += uint64(ind[re-1]) + math.Float64bits(val[re-1])
	}
	return kept
}

// dot2 returns the margins of two rows given by their in-range slab
// prefixes (rowPrefix), each the sum vec.Dot computes in vec.Dot's order.
// The two sums are independent FP-add chains, so they advance in lockstep
// over the prefixes' common length — each hides the other's add latency —
// and then the longer one finishes alone. An empty second row makes it the
// one-row margin.
func dot2(w []float64, ix1 []int32, v1 []float64, ix2 []int32, v2 []float64) (m1, m2 float64) {
	v1, v2 = v1[:len(ix1)], v2[:len(ix2)] // same lengths by construction; drops the v[p] bounds checks
	k := min(len(ix1), len(ix2))
	for p := 0; p < k; p++ {
		m1 += w[ix1[p]] * v1[p]
		m2 += w[ix2[p]] * v2[p]
	}
	for p := k; p < len(ix1); p++ {
		m1 += w[ix1[p]] * v1[p]
	}
	for p := k; p < len(ix2); p++ {
		m2 += w[ix2[p]] * v2[p]
	}
	return m1, m2
}

// lossRows is LossRows: out[r-lo] = l(<w,x_r>, y_r), two rows' margins at a
// time through dot2 — the last row of an odd range paired with an empty one.
// rowPtr and labels are re-sliced to the range, so the loop indexes them
// from 0.
func lossRows(loss glm.Loss, c *CSR, lo, hi int, w, out []float64) {
	rp, lbl := c.rowPtr[lo:hi+1], c.labels[lo:hi]
	ind, val := c.ind, c.val
	out = out[:len(lbl)]
	n := int32(len(w))
	trunc := c.maxInd >= n
	for i := 0; i < len(lbl); i += 2 {
		rs, mid, re := rp[i], rp[i+1], rp[i+1]
		if i+1 < len(lbl) {
			re = rp[i+2]
		}
		end1 := rowPrefix(ind, rs, mid, n, trunc)
		end2 := rowPrefix(ind, mid, re, n, trunc)
		m1, m2 := dot2(w, ind[rs:end1], val[rs:end1], ind[mid:end2], val[mid:end2])
		out[i] = loss.Value(m1, lbl[i])
		if i+1 < len(lbl) {
			out[i+1] = loss.Value(m2, lbl[i+1])
		}
	}
}

// derivRows is DerivsInto and the gradient stream's pass 1: out[r-lo] =
// l'(<w,x_r>, y_r) and, when withLoss is set, the returned Σ l(<w,x_r>, y_r)
// (0 otherwise: the bare derivative skips the logistic loss's logarithm).
// The margins come from dot2 as lossRows's do and feed loss.ValueDeriv as
// gradLoss's do (loss.Deriv without the loss), so the derivative and loss
// bits are the single-pass kernels'.
func derivRows(loss glm.Loss, withLoss bool, c *CSR, lo, hi int, w, out []float64) (sum float64) {
	rp, lbl := c.rowPtr[lo:hi+1], c.labels[lo:hi]
	ind, val := c.ind, c.val
	out = out[:len(lbl)]
	n := int32(len(w))
	trunc := c.maxInd >= n
	for i := 0; i < len(lbl); i += 2 {
		rs, mid, re := rp[i], rp[i+1], rp[i+1]
		if i+1 < len(lbl) {
			re = rp[i+2]
		}
		end1 := rowPrefix(ind, rs, mid, n, trunc)
		end2 := rowPrefix(ind, mid, re, n, trunc)
		m := [2]float64{}
		m[0], m[1] = dot2(w, ind[rs:end1], val[rs:end1], ind[mid:end2], val[mid:end2])
		for j := i; j < min(i+2, len(lbl)); j++ {
			if !withLoss {
				out[j] = loss.Deriv(m[j-i], lbl[j])
				continue
			}
			v, d := loss.ValueDeriv(m[j-i], lbl[j])
			sum += v
			out[j] = d
		}
	}
	return sum
}

// gradLoss is GradAndLoss: g += l'·x and sum += l, one margin per row.
//
// glm.Objective computes the gradient and the loss sum in two separate
// passes (AddGradient then Value), evaluating every row's margin twice.
// The model is constant across both passes, so computing the margin once and
// feeding it to loss.ValueDeriv is bit-identical — the fused pass halves the
// dot-product work, which is the serial-latency floor of the whole kernel,
// and lets the loss share what its value and derivative have in common (the
// logistic exponential).
//
// The margins of two consecutive rows come from dot2, as lossRows's do: w is
// constant during the pass and g (which must NOT alias w; every caller
// passes a distinct gradient buffer) is only written after both margins are
// complete. The value/derivative/axpy updates run strictly in row order, so
// the result is bit-identical to the one-row loop.
func gradLoss(loss glm.Loss, c *CSR, lo, hi int, w, g []float64) (sum float64, nnz int) {
	rp, ind, val, lbl := c.rowPtr, c.ind, c.val, c.labels
	n := int32(len(w))
	trunc := c.maxInd >= n
	// Consecutive rows share a boundary, so one rowPtr load per row pair
	// suffices; the range's structural work is rp[hi]-rp[lo] up front. The
	// last row of an odd range is paired with an empty one.
	rs := rp[lo]
	for r := lo; r < hi; r += 2 {
		mid, re := rp[r+1], rp[r+1]
		if r+1 < hi {
			re = rp[r+2]
		}
		end1 := rowPrefix(ind, rs, mid, n, trunc)
		end2 := rowPrefix(ind, mid, re, n, trunc)
		rIx1, rVal1 := ind[rs:end1], val[rs:end1]
		rVal1 = rVal1[:len(rIx1)] // same length by construction; lets the compiler drop the rVal[p] bounds checks
		rIx2, rVal2 := ind[mid:end2], val[mid:end2]
		rVal2 = rVal2[:len(rIx2)]
		m1, m2 := dot2(w, rIx1, rVal1, rIx2, rVal2)
		v1, d1 := loss.ValueDeriv(m1, lbl[r])
		sum += v1
		if d1 != 0 {
			for p, ix := range rIx1 {
				g[ix] += d1 * rVal1[p]
			}
		}
		if r+1 < hi {
			v2, d2 := loss.ValueDeriv(m2, lbl[r+1])
			sum += v2
			if d2 != 0 {
				for p, ix := range rIx2 {
					g[ix] += d2 * rVal2[p]
				}
			}
		}
		rs = re
	}
	return sum, rp[hi] - rp[lo]
}

// sgdPlain is SGDPassPlain: w -= η_r · l'(<w,x>, y) · x, η_r = sched(base+r).
func sgdPlain(loss glm.Loss, c *CSR, lo, hi int, w []float64, sched func(int) float64, base int) (work int) {
	rp, ind, val, lbl := c.rowPtr, c.ind, c.val, c.labels
	n := int32(len(w))
	trunc := c.maxInd >= n
	for r := lo; r < hi; r++ {
		eta := sched(base + r)
		rs, re := rp[r], rp[r+1]
		end := rowPrefix(ind, rs, re, n, trunc)
		rIx, rVal := ind[rs:end], val[rs:end]
		rVal = rVal[:len(rIx)] // same length by construction; lets the compiler drop the rVal[p] bounds checks
		m := 0.0
		for p, ix := range rIx {
			m += w[ix] * rVal[p]
		}
		if d := loss.Deriv(m, lbl[r]); d != 0 {
			a := -eta * d
			for p, ix := range rIx {
				w[ix] += a * rVal[p]
			}
		}
		work += re - rs
	}
	return work
}

// sgdLazy is SGDPassLazyL2: oracle.LazyL2SGD.Step, slab form.
//
// Each iteration is the exact operation sequence of LazyL2SGD.Step: margin
// s·<vm,x>, derivative, shrinkage fold (materialize + clamp when the factor
// is non-positive), sparse −η·d/s update against the post-shrink scale, then
// the rescale-threshold renormalization. The rare materialization branches
// call vec.Scale — they run O(1/log s) times per epoch, never in the hot
// path.
func sgdLazy(loss glm.Loss, c *CSR, lo, hi int, vm []float64, s, lambda float64, sched func(int) float64, base int) (float64, int) {
	rp, ind, val, lbl := c.rowPtr, c.ind, c.val, c.labels
	n := int32(len(vm))
	trunc := c.maxInd >= n
	work := 0
	for r := lo; r < hi; r++ {
		eta := sched(base + r)
		rs, re := rp[r], rp[r+1]
		end := rowPrefix(ind, rs, re, n, trunc)
		rIx, rVal := ind[rs:end], val[rs:end]
		rVal = rVal[:len(rIx)] // same length by construction; lets the compiler drop the rVal[p] bounds checks
		m := 0.0
		for p, ix := range rIx {
			m += vm[ix] * rVal[p]
		}
		d := loss.Deriv(s*m, lbl[r])
		shrink := 1 - eta*lambda
		if shrink <= 0 {
			vec.Scale(vm, s)
			s = 1
			vec.Scale(vm, math.Max(shrink, 0))
			work += len(vm)
		} else {
			s *= shrink
		}
		if d != 0 {
			a := -eta * d / s
			for p, ix := range rIx {
				vm[ix] += a * rVal[p]
			}
		}
		work += re - rs
		if s < LazyRescaleThreshold {
			vec.Scale(vm, s)
			s = 1
			work += len(vm)
		}
	}
	return s, work
}
