// Slab kernels: loss-specialized, cache-blocked inner loops that consume
// the CSR arena directly — the local-compute path of every trainer hot loop.
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
// Dispatch monomorphizes per loss: one type switch per kernel call selects a
// hand-specialized body for hinge/logistic/squared in which the loss
// derivative is a static, inlinable call on the concrete loss struct
// (kernel_losses.go). Those three are every loss glm.LossByName can return;
// any other glm.Loss panics. The zero View has no rows, so every block loop
// runs zero times and no kernel touches its nil arena (AddGradientRows takes
// row indices, which a zero View cannot have).
package data

import (
	"fmt"

	"mllibstar/internal/glm"
)

// noKernel is the default arm of every loss switch below.
func noKernel(loss glm.Loss) {
	panic(fmt.Sprintf("data: no slab kernel for loss %T", loss))
}

// AddGradient accumulates the loss gradient over the view's rows into g,
// exactly like glm.Objective.AddGradient over Examples(): g += Σ l'(<w,x>,
// y)·x, returning nonzeros touched. It runs the fused margin→deriv→axpy slab
// pass in BlockRows-sized cache blocks.
func AddGradient(obj glm.Objective, w []float64, v View, g []float64) (nnz int) {
	blk := v.BlockRows(0)
	switch obj.Loss.(type) {
	case glm.Hinge:
		for lo := v.lo; lo < v.hi; lo += blk {
			nnz += addGradHinge(v.c, lo, minInt(lo+blk, v.hi), w, g)
		}
	case glm.Logistic:
		for lo := v.lo; lo < v.hi; lo += blk {
			nnz += addGradLogistic(v.c, lo, minInt(lo+blk, v.hi), w, g)
		}
	case glm.Squared:
		for lo := v.lo; lo < v.hi; lo += blk {
			nnz += addGradSquared(v.c, lo, minInt(lo+blk, v.hi), w, g)
		}
	default:
		noKernel(obj.Loss)
	}
	return nnz
}

// AddGradientRows is AddGradient restricted to the given view-relative row
// indices, in order — the sampled mini-batch gradient of the SendGradient
// trainers, computed without gathering the rows into a fresh slice.
func AddGradientRows(obj glm.Objective, w []float64, v View, rows []int32, g []float64) (nnz int) {
	switch obj.Loss.(type) {
	case glm.Hinge:
		return addGradRowsHinge(v.c, v.lo, rows, w, g)
	case glm.Logistic:
		return addGradRowsLogistic(v.c, v.lo, rows, w, g)
	case glm.Squared:
		return addGradRowsSquared(v.c, v.lo, rows, w, g)
	}
	noKernel(obj.Loss)
	return 0
}

// LossSum returns Σ l(<w,x>, y) over the view's rows, bit-identical to
// glm.Objective.LossSum over Examples(): the slab bodies thread one running
// sum through the cache blocks so the summation order is exactly the
// reference's row order.
func LossSum(obj glm.Objective, w []float64, v View) (sum float64) {
	blk := v.BlockRows(0)
	switch obj.Loss.(type) {
	case glm.Hinge:
		for lo := v.lo; lo < v.hi; lo += blk {
			sum = lossSumHinge(v.c, lo, minInt(lo+blk, v.hi), w, sum)
		}
	case glm.Logistic:
		for lo := v.lo; lo < v.hi; lo += blk {
			sum = lossSumLogistic(v.c, lo, minInt(lo+blk, v.hi), w, sum)
		}
	case glm.Squared:
		for lo := v.lo; lo < v.hi; lo += blk {
			sum = lossSumSquared(v.c, lo, minInt(lo+blk, v.hi), w, sum)
		}
	default:
		noKernel(obj.Loss)
	}
	return sum
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
	blk := v.BlockRows(0)
	var n int
	switch obj.Loss.(type) {
	case glm.Hinge:
		for lo := v.lo; lo < v.hi; lo += blk {
			lossSum, n = gradLossHinge(v.c, lo, minInt(lo+blk, v.hi), w, g, lossSum)
			nnz += n
		}
	case glm.Logistic:
		for lo := v.lo; lo < v.hi; lo += blk {
			lossSum, n = gradLossLogistic(v.c, lo, minInt(lo+blk, v.hi), w, g, lossSum)
			nnz += n
		}
	case glm.Squared:
		for lo := v.lo; lo < v.hi; lo += blk {
			lossSum, n = gradLossSquared(v.c, lo, minInt(lo+blk, v.hi), w, g, lossSum)
			nnz += n
		}
	default:
		noKernel(obj.Loss)
	}
	return lossSum, nnz
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
	blk := v.BlockRows(0)
	switch loss.(type) {
	case glm.Hinge:
		for lo := v.lo; lo < v.hi; lo += blk {
			derivsHinge(v.c, lo, minInt(lo+blk, v.hi), w, out[lo-v.lo:])
		}
	case glm.Logistic:
		for lo := v.lo; lo < v.hi; lo += blk {
			derivsLogistic(v.c, lo, minInt(lo+blk, v.hi), w, out[lo-v.lo:])
		}
	case glm.Squared:
		for lo := v.lo; lo < v.hi; lo += blk {
			derivsSquared(v.c, lo, minInt(lo+blk, v.hi), w, out[lo-v.lo:])
		}
	default:
		noKernel(loss)
	}
}

// SGDPassPlain runs one epoch of unregularized per-example SGD over the
// view — margin, derivative, and the w ← w − η·l'·x update fused into one
// slab pass. sched is indexed exactly like opt.LocalPass: stepBase plus the
// view-relative row number.
func SGDPassPlain(loss glm.Loss, w []float64, v View, sched func(int) float64, stepBase int) (work int) {
	blk := v.BlockRows(0)
	base := stepBase - v.lo // sched argument for arena row r is base + r
	switch loss.(type) {
	case glm.Hinge:
		for lo := v.lo; lo < v.hi; lo += blk {
			work += sgdPlainHinge(v.c, lo, minInt(lo+blk, v.hi), w, sched, base)
		}
	case glm.Logistic:
		for lo := v.lo; lo < v.hi; lo += blk {
			work += sgdPlainLogistic(v.c, lo, minInt(lo+blk, v.hi), w, sched, base)
		}
	case glm.Squared:
		for lo := v.lo; lo < v.hi; lo += blk {
			work += sgdPlainSquared(v.c, lo, minInt(lo+blk, v.hi), w, sched, base)
		}
	default:
		noKernel(loss)
	}
	return work
}

// lazyRescaleThreshold mirrors opt's rescaleThreshold: the scale s of the
// lazily scaled representation w = s·vm is renormalized below it. The two
// constants must stay equal for bit identity with opt.LazyL2SGD.Step;
// TestSGDPassLazyL2MatchesStep pins the behaviour.
const lazyRescaleThreshold = 1e-9

// SGDPassLazyL2 runs one epoch of L2-regularized per-example SGD over the
// view in Bottou's scaled representation w = s·vm, replicating
// opt.LazyL2SGD.Step exactly: per example it computes the margin s·<vm,x>,
// folds the shrinkage (1−ηλ) into s (materializing when the factor is
// non-positive), applies the sparse −η·l'/s update to vm, and renormalizes
// when s falls below the rescale threshold. It returns the updated scale
// and the accumulated work; the caller owns the final materialization (and
// its +len(w) work), exactly as opt.LocalPassWith does.
func SGDPassLazyL2(loss glm.Loss, vm []float64, s, lambda float64, v View, sched func(int) float64, stepBase int) (sOut float64, work int) {
	blk := v.BlockRows(0)
	base := stepBase - v.lo
	var n int
	switch loss.(type) {
	case glm.Hinge:
		for lo := v.lo; lo < v.hi; lo += blk {
			s, n = sgdLazyHinge(v.c, lo, minInt(lo+blk, v.hi), vm, s, lambda, sched, base)
			work += n
		}
	case glm.Logistic:
		for lo := v.lo; lo < v.hi; lo += blk {
			s, n = sgdLazyLogistic(v.c, lo, minInt(lo+blk, v.hi), vm, s, lambda, sched, base)
			work += n
		}
	case glm.Squared:
		for lo := v.lo; lo < v.hi; lo += blk {
			s, n = sgdLazySquared(v.c, lo, minInt(lo+blk, v.hi), vm, s, lambda, sched, base)
			work += n
		}
	default:
		noKernel(loss)
	}
	return s, work
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
