package opt

// View-based forms of the sequential kernels — what the trainers call. Same
// algorithms, same floating-point operation order, same work accounting as
// their []glm.Example counterparts in opt.go, but consuming data.View, the
// one dataset type the trainers hold, so the hot loops run on the slab
// kernels (internal/data). The []glm.Example forms remain for example-slice
// consumers (ReferenceOptimum) and as the references the unit tests compare
// these against, bit for bit. AdaGrad and SVRG take a View too; they visit
// it a row at a time through data.View.Example.

import (
	"mllibstar/internal/data"
	"mllibstar/internal/glm"
)

// LocalPassView is LocalPassWith over a view. The model it produces is
// bit-identical to LocalPassWith over the view's rows: the plain and lazy-L2
// slab passes replicate the per-example update sequence exactly. L1 and
// ElasticNet have no lazy form and no slab body: they run LocalPassWith's
// eager per-example step over the view's rows, one View.Example at a time.
func LocalPassView(obj glm.Objective, w []float64, v data.View, sched Schedule, stepBase int, sc *PassScratch) (work int) {
	switch reg := obj.Reg.(type) {
	case glm.None:
		return data.SGDPassPlain(obj.Loss, w, v, sched, stepBase)
	case glm.L2:
		lazy := sc.lazyFor(w, reg.Strength)
		lazy.s, work = data.SGDPassLazyL2(obj.Loss, lazy.v, lazy.s, lazy.Lambda, v, sched, stepBase)
		lazy.WeightsInto(w)
		return work + len(w) // final materialization
	default:
		for i := 0; i < v.NumRows(); i++ {
			work += EagerSGDStep(obj, w, v.Example(i), sched(stepBase+i))
		}
		return work
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

// MGDStepView is MGDStep over a view: the batch gradient comes from the
// fused slab pass (data.AddGradient) into the scratch's all-zero gradient.
// Without regularisation only the batch's touched coordinates can hold a
// nonzero gradient, and elsewhere w[j] -= inv·(+0) leaves every w[j] as it
// is (inv ≥ 0: eta is non-negative), so the update and the re-zeroing visit
// the touched set alone — O(nnz) per step, bit-equal to MGDStep's dense
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

// LocalMGDEpochView is LocalMGDEpoch over a view: consecutive batches are
// rowPtr sub-views of the partition's arena, never slice copies.
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
