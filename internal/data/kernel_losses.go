package data

// Hand-specialized kernel bodies, one set per loss. Go's inliner will not
// inline a loop-containing function and generic instantiation over the
// zero-size loss structs shares one gcshape (dictionary dispatch, indirect
// calls), so the bodies are spelled out: the only calls inside each row loop
// are static methods on the concrete loss type, which are branch-only and
// inline away. Every body works on arena rows [lo, hi) and follows the same
// shape:
//
//	rs, re := rowPtr[r], rowPtr[r+1]       // row's slab extent
//	end := first index ≥ len(model), or re // vec.Dot/Axpy truncation
//	margin over ind[rs:end]/val[rs:end]    // index-free: w[ix] * val[p]
//	deriv/value via the concrete loss      // static, inlinable
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

// ---- AddGradient: g += l'(<w,x>, y) · x --------------------------------

func addGradHinge(c *CSR, lo, hi int, w, g []float64) (nnz int) {
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
		if d := (glm.Hinge{}).Deriv(m, lbl[r]); d != 0 {
			for p, ix := range rIx {
				g[ix] += d * rVal[p]
			}
		}
		nnz += re - rs
	}
	return nnz
}

func addGradLogistic(c *CSR, lo, hi int, w, g []float64) (nnz int) {
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
		if d := (glm.Logistic{}).Deriv(m, lbl[r]); d != 0 {
			for p, ix := range rIx {
				g[ix] += d * rVal[p]
			}
		}
		nnz += re - rs
	}
	return nnz
}

func addGradSquared(c *CSR, lo, hi int, w, g []float64) (nnz int) {
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
		if d := (glm.Squared{}).Deriv(m, lbl[r]); d != 0 {
			for p, ix := range rIx {
				g[ix] += d * rVal[p]
			}
		}
		nnz += re - rs
	}
	return nnz
}

// ---- AddGradientRows: AddGradient over sampled arena rows --------------

func addGradRowsHinge(c *CSR, base int, rows []int32, w, g []float64) (nnz int) {
	rp, ind, val, lbl := c.rowPtr, c.ind, c.val, c.labels
	n := int32(len(w))
	trunc := c.maxInd >= n
	for _, ri := range rows {
		r := base + int(ri)
		rs, re := rp[r], rp[r+1]
		end := rowPrefix(ind, rs, re, n, trunc)
		rIx, rVal := ind[rs:end], val[rs:end]
		rVal = rVal[:len(rIx)] // same length by construction; lets the compiler drop the rVal[p] bounds checks
		m := 0.0
		for p, ix := range rIx {
			m += w[ix] * rVal[p]
		}
		if d := (glm.Hinge{}).Deriv(m, lbl[r]); d != 0 {
			for p, ix := range rIx {
				g[ix] += d * rVal[p]
			}
		}
		nnz += re - rs
	}
	return nnz
}

func addGradRowsLogistic(c *CSR, base int, rows []int32, w, g []float64) (nnz int) {
	rp, ind, val, lbl := c.rowPtr, c.ind, c.val, c.labels
	n := int32(len(w))
	trunc := c.maxInd >= n
	for _, ri := range rows {
		r := base + int(ri)
		rs, re := rp[r], rp[r+1]
		end := rowPrefix(ind, rs, re, n, trunc)
		rIx, rVal := ind[rs:end], val[rs:end]
		rVal = rVal[:len(rIx)] // same length by construction; lets the compiler drop the rVal[p] bounds checks
		m := 0.0
		for p, ix := range rIx {
			m += w[ix] * rVal[p]
		}
		if d := (glm.Logistic{}).Deriv(m, lbl[r]); d != 0 {
			for p, ix := range rIx {
				g[ix] += d * rVal[p]
			}
		}
		nnz += re - rs
	}
	return nnz
}

func addGradRowsSquared(c *CSR, base int, rows []int32, w, g []float64) (nnz int) {
	rp, ind, val, lbl := c.rowPtr, c.ind, c.val, c.labels
	n := int32(len(w))
	trunc := c.maxInd >= n
	for _, ri := range rows {
		r := base + int(ri)
		rs, re := rp[r], rp[r+1]
		end := rowPrefix(ind, rs, re, n, trunc)
		rIx, rVal := ind[rs:end], val[rs:end]
		rVal = rVal[:len(rIx)] // same length by construction; lets the compiler drop the rVal[p] bounds checks
		m := 0.0
		for p, ix := range rIx {
			m += w[ix] * rVal[p]
		}
		if d := (glm.Squared{}).Deriv(m, lbl[r]); d != 0 {
			for p, ix := range rIx {
				g[ix] += d * rVal[p]
			}
		}
		nnz += re - rs
	}
	return nnz
}

// ---- LossSum: sum += l(<w,x>, y), running sum threaded through blocks --

func lossSumHinge(c *CSR, lo, hi int, w []float64, sum float64) float64 {
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
		sum += glm.Hinge{}.Value(m, lbl[r])
	}
	return sum
}

func lossSumLogistic(c *CSR, lo, hi int, w []float64, sum float64) float64 {
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
		sum += glm.Logistic{}.Value(m, lbl[r])
	}
	return sum
}

func lossSumSquared(c *CSR, lo, hi int, w []float64, sum float64) float64 {
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
		sum += glm.Squared{}.Value(m, lbl[r])
	}
	return sum
}

// ---- DerivsInto: out[r-lo] = l'(<w,x_r>, y_r) --------------------------

func derivsHinge(c *CSR, lo, hi int, w, out []float64) {
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
		out[r-lo] = glm.Hinge{}.Deriv(m, lbl[r])
	}
}

func derivsLogistic(c *CSR, lo, hi int, w, out []float64) {
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
		out[r-lo] = glm.Logistic{}.Deriv(m, lbl[r])
	}
}

func derivsSquared(c *CSR, lo, hi int, w, out []float64) {
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
		out[r-lo] = glm.Squared{}.Deriv(m, lbl[r])
	}
}

// ---- GradAndLoss: g += l'·x and sum += l, one margin per row ------------
//
// glm.Objective computes the gradient and the loss sum in two separate
// passes (AddGradient then LossSum), evaluating every row's margin twice.
// The model is constant across both passes, so computing the margin once and
// feeding it to both the value and the derivative is bit-identical — the
// fused pass halves the dot-product work, which is the serial-latency floor
// of the whole kernel. For the logistic loss the fusion goes one level
// deeper: Value and Deriv branch on the same z = y·margin and build on the
// same exponential, so the body computes exp once and reproduces each
// branch's arithmetic exactly.
//
// The bodies additionally software-pipeline the margins of two consecutive
// rows. A single row's dot product is one serial FP-add dependency chain —
// the latency floor of the whole pass — but the two rows' chains are
// independent: w is constant during the pass and g (which must NOT alias w;
// every caller passes a distinct gradient buffer) is only written after both
// margins are complete. Interleaving the two chains overlaps the add
// latency. Each margin still accumulates in its own scalar in per-nonzero
// order, and the value/derivative/axpy updates run strictly in row order, so
// the result is bit-identical to the one-row loop.

func gradLossHinge(c *CSR, lo, hi int, w, g []float64, sum float64) (float64, int) {
	rp, ind, val, lbl := c.rowPtr, c.ind, c.val, c.labels
	n := int32(len(w))
	trunc := c.maxInd >= n
	// Consecutive rows share a boundary, so one rowPtr load per row pair
	// suffices; the block's structural work is rp[hi]-rp[lo] up front.
	rs := rp[lo]
	r := lo
	for ; r+1 < hi; r += 2 {
		mid, re := rp[r+1], rp[r+2]
		end1 := rowPrefix(ind, rs, mid, n, trunc)
		end2 := rowPrefix(ind, mid, re, n, trunc)
		rIx1, rVal1 := ind[rs:end1], val[rs:end1]
		rVal1 = rVal1[:len(rIx1)] // same length by construction; lets the compiler drop the rVal[p] bounds checks
		rIx2, rVal2 := ind[mid:end2], val[mid:end2]
		rVal2 = rVal2[:len(rIx2)]
		m1, m2 := 0.0, 0.0
		k := len(rIx1)
		if len(rIx2) < k {
			k = len(rIx2)
		}
		for p := 0; p < k; p++ {
			m1 += w[rIx1[p]] * rVal1[p]
			m2 += w[rIx2[p]] * rVal2[p]
		}
		for p := k; p < len(rIx1); p++ {
			m1 += w[rIx1[p]] * rVal1[p]
		}
		for p := k; p < len(rIx2); p++ {
			m2 += w[rIx2[p]] * rVal2[p]
		}
		y1, y2 := lbl[r], lbl[r+1]
		sum += glm.Hinge{}.Value(m1, y1)
		if d := (glm.Hinge{}).Deriv(m1, y1); d != 0 {
			for p, ix := range rIx1 {
				g[ix] += d * rVal1[p]
			}
		}
		sum += glm.Hinge{}.Value(m2, y2)
		if d := (glm.Hinge{}).Deriv(m2, y2); d != 0 {
			for p, ix := range rIx2 {
				g[ix] += d * rVal2[p]
			}
		}
		rs = re
	}
	if r < hi {
		re := rp[r+1]
		end := rowPrefix(ind, rs, re, n, trunc)
		rIx, rVal := ind[rs:end], val[rs:end]
		rVal = rVal[:len(rIx)]
		m := 0.0
		for p, ix := range rIx {
			m += w[ix] * rVal[p]
		}
		y := lbl[r]
		sum += glm.Hinge{}.Value(m, y)
		if d := (glm.Hinge{}).Deriv(m, y); d != 0 {
			for p, ix := range rIx {
				g[ix] += d * rVal[p]
			}
		}
	}
	return sum, rp[hi] - rp[lo]
}

// logisticValueDeriv is glm.Logistic.Value and .Deriv fused on the shared
// exponential: per branch this is the exact operation sequence of each
// method, with exp computed once.
func logisticValueDeriv(m, y float64) (value, d float64) {
	if z := y * m; z > 0 {
		e := math.Exp(-z)
		return math.Log1p(e), -y * e / (1 + e)
	} else {
		e := math.Exp(z)
		return -z + math.Log1p(e), -y / (1 + e)
	}
}

func gradLossLogistic(c *CSR, lo, hi int, w, g []float64, sum float64) (float64, int) {
	rp, ind, val, lbl := c.rowPtr, c.ind, c.val, c.labels
	n := int32(len(w))
	trunc := c.maxInd >= n
	// Consecutive rows share a boundary, so one rowPtr load per row pair
	// suffices; the block's structural work is rp[hi]-rp[lo] up front.
	rs := rp[lo]
	r := lo
	for ; r+1 < hi; r += 2 {
		mid, re := rp[r+1], rp[r+2]
		end1 := rowPrefix(ind, rs, mid, n, trunc)
		end2 := rowPrefix(ind, mid, re, n, trunc)
		rIx1, rVal1 := ind[rs:end1], val[rs:end1]
		rVal1 = rVal1[:len(rIx1)] // same length by construction; lets the compiler drop the rVal[p] bounds checks
		rIx2, rVal2 := ind[mid:end2], val[mid:end2]
		rVal2 = rVal2[:len(rIx2)]
		m1, m2 := 0.0, 0.0
		k := len(rIx1)
		if len(rIx2) < k {
			k = len(rIx2)
		}
		for p := 0; p < k; p++ {
			m1 += w[rIx1[p]] * rVal1[p]
			m2 += w[rIx2[p]] * rVal2[p]
		}
		for p := k; p < len(rIx1); p++ {
			m1 += w[rIx1[p]] * rVal1[p]
		}
		for p := k; p < len(rIx2); p++ {
			m2 += w[rIx2[p]] * rVal2[p]
		}
		v1, d1 := logisticValueDeriv(m1, lbl[r])
		sum += v1
		if d1 != 0 {
			for p, ix := range rIx1 {
				g[ix] += d1 * rVal1[p]
			}
		}
		v2, d2 := logisticValueDeriv(m2, lbl[r+1])
		sum += v2
		if d2 != 0 {
			for p, ix := range rIx2 {
				g[ix] += d2 * rVal2[p]
			}
		}
		rs = re
	}
	if r < hi {
		re := rp[r+1]
		end := rowPrefix(ind, rs, re, n, trunc)
		rIx, rVal := ind[rs:end], val[rs:end]
		rVal = rVal[:len(rIx)]
		m := 0.0
		for p, ix := range rIx {
			m += w[ix] * rVal[p]
		}
		v, d := logisticValueDeriv(m, lbl[r])
		sum += v
		if d != 0 {
			for p, ix := range rIx {
				g[ix] += d * rVal[p]
			}
		}
	}
	return sum, rp[hi] - rp[lo]
}

func gradLossSquared(c *CSR, lo, hi int, w, g []float64, sum float64) (float64, int) {
	rp, ind, val, lbl := c.rowPtr, c.ind, c.val, c.labels
	n := int32(len(w))
	trunc := c.maxInd >= n
	// Consecutive rows share a boundary, so one rowPtr load per row pair
	// suffices; the block's structural work is rp[hi]-rp[lo] up front.
	rs := rp[lo]
	r := lo
	for ; r+1 < hi; r += 2 {
		mid, re := rp[r+1], rp[r+2]
		end1 := rowPrefix(ind, rs, mid, n, trunc)
		end2 := rowPrefix(ind, mid, re, n, trunc)
		rIx1, rVal1 := ind[rs:end1], val[rs:end1]
		rVal1 = rVal1[:len(rIx1)] // same length by construction; lets the compiler drop the rVal[p] bounds checks
		rIx2, rVal2 := ind[mid:end2], val[mid:end2]
		rVal2 = rVal2[:len(rIx2)]
		m1, m2 := 0.0, 0.0
		k := len(rIx1)
		if len(rIx2) < k {
			k = len(rIx2)
		}
		for p := 0; p < k; p++ {
			m1 += w[rIx1[p]] * rVal1[p]
			m2 += w[rIx2[p]] * rVal2[p]
		}
		for p := k; p < len(rIx1); p++ {
			m1 += w[rIx1[p]] * rVal1[p]
		}
		for p := k; p < len(rIx2); p++ {
			m2 += w[rIx2[p]] * rVal2[p]
		}
		y1, y2 := lbl[r], lbl[r+1]
		sum += glm.Squared{}.Value(m1, y1)
		if d := (glm.Squared{}).Deriv(m1, y1); d != 0 {
			for p, ix := range rIx1 {
				g[ix] += d * rVal1[p]
			}
		}
		sum += glm.Squared{}.Value(m2, y2)
		if d := (glm.Squared{}).Deriv(m2, y2); d != 0 {
			for p, ix := range rIx2 {
				g[ix] += d * rVal2[p]
			}
		}
		rs = re
	}
	if r < hi {
		re := rp[r+1]
		end := rowPrefix(ind, rs, re, n, trunc)
		rIx, rVal := ind[rs:end], val[rs:end]
		rVal = rVal[:len(rIx)]
		m := 0.0
		for p, ix := range rIx {
			m += w[ix] * rVal[p]
		}
		y := lbl[r]
		sum += glm.Squared{}.Value(m, y)
		if d := (glm.Squared{}).Deriv(m, y); d != 0 {
			for p, ix := range rIx {
				g[ix] += d * rVal[p]
			}
		}
	}
	return sum, rp[hi] - rp[lo]
}

// ---- SGDPassPlain: w -= η_r · l'(<w,x>, y) · x, η_r = sched(base+r) ----

func sgdPlainHinge(c *CSR, lo, hi int, w []float64, sched func(int) float64, base int) (work int) {
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
		if d := (glm.Hinge{}).Deriv(m, lbl[r]); d != 0 {
			a := -eta * d
			for p, ix := range rIx {
				w[ix] += a * rVal[p]
			}
		}
		work += re - rs
	}
	return work
}

func sgdPlainLogistic(c *CSR, lo, hi int, w []float64, sched func(int) float64, base int) (work int) {
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
		if d := (glm.Logistic{}).Deriv(m, lbl[r]); d != 0 {
			a := -eta * d
			for p, ix := range rIx {
				w[ix] += a * rVal[p]
			}
		}
		work += re - rs
	}
	return work
}

func sgdPlainSquared(c *CSR, lo, hi int, w []float64, sched func(int) float64, base int) (work int) {
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
		if d := (glm.Squared{}).Deriv(m, lbl[r]); d != 0 {
			a := -eta * d
			for p, ix := range rIx {
				w[ix] += a * rVal[p]
			}
		}
		work += re - rs
	}
	return work
}

// ---- SGDPassLazyL2: opt.LazyL2SGD.Step, slab form ----------------------
//
// Each iteration is the exact operation sequence of LazyL2SGD.Step: margin
// s·<vm,x>, derivative, shrinkage fold (materialize + clamp when the factor
// is non-positive), sparse −η·d/s update against the post-shrink scale, then
// the rescale-threshold renormalization. The rare materialization branches
// call vec.Scale — they run O(1/log s) times per epoch, never in the hot
// path.

func sgdLazyHinge(c *CSR, lo, hi int, vm []float64, s, lambda float64, sched func(int) float64, base int) (float64, int) {
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
		d := glm.Hinge{}.Deriv(s*m, lbl[r])
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
		if s < lazyRescaleThreshold {
			vec.Scale(vm, s)
			s = 1
			work += len(vm)
		}
	}
	return s, work
}

func sgdLazyLogistic(c *CSR, lo, hi int, vm []float64, s, lambda float64, sched func(int) float64, base int) (float64, int) {
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
		d := glm.Logistic{}.Deriv(s*m, lbl[r])
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
		if s < lazyRescaleThreshold {
			vec.Scale(vm, s)
			s = 1
			work += len(vm)
		}
	}
	return s, work
}

func sgdLazySquared(c *CSR, lo, hi int, vm []float64, s, lambda float64, sched func(int) float64, base int) (float64, int) {
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
		d := glm.Squared{}.Deriv(s*m, lbl[r])
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
		if s < lazyRescaleThreshold {
			vec.Scale(vm, s)
			s = 1
			work += len(vm)
		}
	}
	return s, work
}
