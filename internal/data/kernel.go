// Slab kernels: fused inner loops that consume the CSR arena directly — the
// local-compute path of every trainer hot loop.
//
// Contract (every kernel, every loss):
//
//   - Bit identity with the reference. A kernel performs exactly the
//     floating-point operations of the per-Example reference in glm / opt
//     (glm.Objective.AddGradient, opt.LocalPassWith, ...) — same per-row
//     order, same per-nonzero order, same vec.Dot/vec.Axpy truncation at the
//     first index ≥ len(model), same `d != 0` update guard. The unit tests of
//     this package and of opt compare the two bit for bit.
//   - Zero allocations. Kernels write only into caller-owned buffers.
//   - Work accounting. Returned work is the structural nonzeros-touched
//     measure (full row NNZ, counting truncated entries, exactly like
//     glm.Objective.AddGradient).
//
// Each kernel has one body (kernel_losses.go) that takes the loss as a
// glm.Loss value and calls it once per row, so any glm.Loss works and this
// package names no concrete loss. Measured against per-loss copies of the
// same bodies with the loss inlined (BenchmarkSlabKernels compiled against
// both, alternating runs), the call costs 1.5–3.5 ns a row: visible at 2
// nonzeros per row on the kernels that compute little more than the margin
// of a branch-only loss (LossSum, DerivsInto, GradStream.Prepare: +15–30 %),
// inside run-to-run spread at 15 and 64 — Table I's datasets have 11–115.
// Every exported entry point is a zero-row guard — the zero View has a nil
// arena — and one call over the view's arena rows [lo, hi).
package data

import "mllibstar/internal/glm"

// AddGradient accumulates the loss gradient over the view's rows into g,
// exactly like glm.Objective.AddGradient over Examples(): g += Σ l'(<w,x>,
// y)·x, returning nonzeros touched, in one fused margin→deriv→axpy slab pass.
func AddGradient(obj glm.Objective, w []float64, v View, g []float64) (nnz int) {
	if v.NumRows() == 0 {
		return 0
	}
	return addGrad(obj.Loss, v.c, v.lo, v.hi, w, g)
}

// AddGradientRows is AddGradient restricted to the given view-relative row
// indices, in order — the sampled mini-batch gradient of the SendGradient
// trainers, computed without gathering the rows into a fresh slice.
func AddGradientRows(obj glm.Objective, w []float64, v View, rows []int32, g []float64) (nnz int) {
	if len(rows) == 0 {
		return 0
	}
	return addGradRows(obj.Loss, v.c, v.lo, rows, w, g)
}

// LossSum returns Σ l(<w,x>, y) over the view's rows, bit-identical to
// glm.Objective.LossSum over Examples(): one running sum in row order.
func LossSum(obj glm.Objective, w []float64, v View) float64 {
	if v.NumRows() == 0 {
		return 0
	}
	return lossSum(obj.Loss, v.c, v.lo, v.hi, w)
}

// GradAndLoss computes AddGradient and LossSum in one fused slab pass:
// g += Σ l'(<w,x>, y)·x and the returned loss sum Σ l(<w,x>, y), with the
// margin of each row computed once and shared. The model is constant across
// both quantities, so the result is bit-identical to calling AddGradient
// followed by LossSum — but the dot products, the row-slab traffic, and (for
// the logistic loss) the exponentials are paid once instead of twice. This
// is the L-BFGS superstep hot path, where every iteration needs exactly this
// gradient/loss pair.
func GradAndLoss(obj glm.Objective, w []float64, v View, g []float64) (lossSum float64, nnz int) {
	if v.NumRows() == 0 {
		return 0, 0
	}
	return gradLoss(obj.Loss, v.c, v.lo, v.hi, w, g)
}

// Value returns the full objective f(w) = (1/n)·Σ l + Ω(w) over the view,
// mirroring glm.Objective.Value (same division, same regularizer term).
func Value(obj glm.Objective, w []float64, v View) float64 {
	if v.NumRows() == 0 {
		return obj.Reg.Value(w)
	}
	return LossSum(obj, w, v)/float64(v.NumRows()) + obj.Reg.Value(w)
}

// DerivsInto computes the per-row loss derivatives l'(<w,x_i>, y_i) of the
// view into out (length ≥ NumRows) — pass 1 of the two-pass GradStream: w is
// constant during accumulation, so derivatives computed up front are
// bit-identical to ones computed interleaved with the adds.
func DerivsInto(loss glm.Loss, w []float64, v View, out []float64) {
	if v.NumRows() == 0 {
		return
	}
	derivs(loss, v.c, v.lo, v.hi, w, out)
}

// SGDPassPlain runs one epoch of unregularized per-example SGD over the
// view — margin, derivative, and the w ← w − η·l'·x update fused into one
// slab pass. sched is indexed exactly like opt.LocalPass: stepBase plus the
// view-relative row number.
func SGDPassPlain(loss glm.Loss, w []float64, v View, sched func(int) float64, stepBase int) (work int) {
	if v.NumRows() == 0 {
		return 0
	}
	// The sched argument for arena row r is stepBase - v.lo + r.
	return sgdPlain(loss, v.c, v.lo, v.hi, w, sched, stepBase-v.lo)
}

// LazyRescaleThreshold is the scale below which the lazily scaled
// representation w = s·vm is renormalized (s folded into vm, s = 1) — one
// constant for SGDPassLazyL2 and opt.LazyL2SGD.Step, which must agree bit for
// bit.
const LazyRescaleThreshold = 1e-9

// SGDPassLazyL2 runs one epoch of L2-regularized per-example SGD over the
// view in Bottou's scaled representation w = s·vm, replicating
// opt.LazyL2SGD.Step exactly: per example it computes the margin s·<vm,x>,
// folds the shrinkage (1−ηλ) into s (materializing when the factor is
// non-positive), applies the sparse −η·l'/s update to vm, and renormalizes
// when s falls below LazyRescaleThreshold. It returns the updated scale
// and the accumulated work; the caller owns the final materialization (and
// its +len(w) work), exactly as opt.LocalPassWith does.
func SGDPassLazyL2(loss glm.Loss, vm []float64, s, lambda float64, v View, sched func(int) float64, stepBase int) (sOut float64, work int) {
	if v.NumRows() == 0 {
		return s, 0
	}
	return sgdLazy(loss, v.c, v.lo, v.hi, vm, s, lambda, sched, stepBase-v.lo)
}
