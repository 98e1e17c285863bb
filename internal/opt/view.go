package opt

// View-based forms of the sequential kernels — what the trainers call. The
// hot loops run on the slab kernels (internal/data) over data.View, the one
// dataset type the trainers hold. Each form performs the floating-point
// operations, in order, and the work accounting of its per-example
// reference in internal/oracle, and the tests compare the two bit for bit.
// AdaGrad and SVRG take a View too; they visit it a row at a time through
// data.View.Example.

import (
	"fmt"

	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// LocalPassView runs one epoch of per-example SGD over the view's rows, in
// order, updating w in place: plain sparse updates without regularization,
// and with an L2 term Bottou's lazily scaled representation ([14] in the
// paper): the pass holds w = s·v, so the per-example update
//
//	w ← (1−ηλ)·w − η·l'·x
//
// costs O(nnz(x)) — the shrinkage folds into the scalar s and only the
// touched coordinates of v change — and materializes w once at the end. The
// shadow v is sc's buffer (nil allocates per call); a negative λ panics,
// and so does any regulariser other than None and L2. It is the
// worker-local computation of the SendModel paradigm, and the returned work
// drives the compute cost model.
func LocalPassView(obj glm.Objective, w []float64, v data.View, sched Schedule, stepBase int, sc *PassScratch) (work int) {
	switch reg := obj.Reg.(type) {
	case glm.None:
		return data.SGDPassPlain(obj.Loss, w, v, sched, stepBase)
	case glm.L2:
		if reg.Strength < 0 {
			panic(fmt.Sprintf("opt: negative lambda %g", reg.Strength))
		}
		shadow := sc.shadow(w)
		s, work := data.SGDPassLazyL2(obj.Loss, shadow, 1, reg.Strength, v, sched, stepBase)
		vec.ScaleTo(w, s, shadow)
		return work + len(w) // final materialization
	default:
		panic(fmt.Sprintf("opt: no local pass for regulariser %T", reg))
	}
}

// MGDScratch holds the reusable buffers of MGDStepView: the batch gradient,
// which is all +0 between steps, and — for an unregularised objective — the
// batch's touched coordinates with their marks. The zero value is ready to
// use; buffers are sized on first use.
type MGDScratch struct {
	g       []float64
	mark    []uint8
	touched []int32
}

// forDim returns sc sized for an n-coordinate model (a fresh scratch when sc
// is nil); freshly allocated buffers are zero, as the invariant wants.
func (sc *MGDScratch) forDim(n int) *MGDScratch {
	if sc == nil {
		sc = &MGDScratch{}
	}
	if len(sc.g) != n {
		sc.g, sc.mark = make([]float64, n), make([]uint8, n)
	}
	return sc
}

// MGDStepView performs one mini-batch gradient-descent update in place
// (Algorithm 1 of the paper):
//
//	w ← w − η·(1/|B|)·Σ∇l − η·∇Ω(w)
//
// and returns the work in nonzeros touched, the dense regularization sweep
// included when Ω ≠ 0. The batch gradient comes from the fused slab pass
// (data.AddGradient) into the scratch's all-zero gradient.
// Without regularisation only the batch's touched coordinates can hold a
// nonzero gradient, and elsewhere w[j] -= inv·(+0) leaves every w[j] as it
// is (inv ≥ 0: eta is non-negative), so the update and the re-zeroing visit
// the touched set alone — O(nnz) per step, bit-equal to oracle.MGDStep's dense
// sweep. With a regulariser the update is dense.
func MGDStepView(obj glm.Objective, w []float64, batch data.View, eta float64, sc *MGDScratch) (work int) {
	if batch.NumRows() == 0 {
		return 0
	}
	sc = sc.forDim(len(w))
	g := sc.g
	work = data.AddGradient(obj, w, batch, g)
	inv := eta / float64(batch.NumRows())
	if _, isNone := obj.Reg.(glm.None); isNone {
		sc.touched = batch.AppendTouched(sc.touched[:0], sc.mark)
		for _, j := range sc.touched {
			w[j] -= inv * g[j]
			g[j] = 0
		}
	} else {
		for j := range w {
			w[j] -= inv*g[j] + eta*obj.Reg.DerivAt(w[j])
			g[j] = 0
		}
		work += len(w) // dense regularization sweep
	}
	return work
}

// LocalMGDEpochView runs mini-batch GD over the view split into consecutive
// batches of the given size (the last may be smaller) — the per-batch local
// computation Angel performs within one epoch — and returns the work in
// nonzeros and the steps taken. The batches are rowPtr sub-views of the
// partition's arena, never slice copies.
func LocalMGDEpochView(obj glm.Objective, w []float64, v data.View, batchSize int, sched Schedule, stepBase int, sc *MGDScratch) (work, steps int) {
	n := v.NumRows()
	if batchSize <= 0 {
		batchSize = n
	}
	sc = sc.forDim(len(w))
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		work += MGDStepView(obj, w, v.Sub(lo, hi), sched(stepBase+steps), sc)
		steps++
	}
	return work, steps
}
