package opt

// View-based forms of the sequential kernels — what the trainers call. Same
// algorithms, same floating-point operation order, same work accounting as
// their []glm.Example counterparts in opt.go, but consuming data.View so the
// hot loops run on the slab kernels (internal/data). The []glm.Example forms
// remain for example-slice consumers (ReferenceOptimum) and as the
// references the unit tests compare these against, bit for bit.

import (
	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// LocalPassView is LocalPassWith over a view. The model it produces is
// bit-identical to LocalPassWith(obj, w, v.Examples(), ...): the plain and
// lazy-L2 slab passes replicate the per-example update sequence exactly.
// L1 and ElasticNet have no lazy form and no slab body: they run
// LocalPassWith's eager per-example loop over the view's rows.
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
		return LocalPassWith(obj, w, v.Examples(), sched, stepBase, sc)
	}
}

// MGDStepView is MGDStep over a view: the batch gradient comes from the
// fused slab pass (data.AddGradient), the update sweeps are unchanged.
func MGDStepView(obj glm.Objective, w []float64, batch data.View, eta float64, scratch []float64) (work int) {
	if batch.NumRows() == 0 {
		return 0
	}
	g := scratch
	if len(g) != len(w) {
		g = make([]float64, len(w)) // fresh buffer: already zero
	} else {
		vec.Zero(g) // recycled scratch: clear only in this case
	}
	work = data.AddGradient(obj, w, batch, g)
	inv := eta / float64(batch.NumRows())
	if _, isNone := obj.Reg.(glm.None); isNone {
		for j := range w {
			w[j] -= inv * g[j]
		}
	} else {
		for j := range w {
			w[j] -= inv*g[j] + eta*obj.Reg.DerivAt(w[j])
		}
		work += len(w) // dense regularization sweep
	}
	return work
}

// LocalMGDEpochView is LocalMGDEpoch over a view: consecutive batches are
// rowPtr sub-views of the partition's arena, never slice copies.
func LocalMGDEpochView(obj glm.Objective, w []float64, v data.View, batchSize int, sched Schedule, stepBase int, scratch []float64) (work, steps int) {
	n := v.NumRows()
	if batchSize <= 0 {
		batchSize = n
	}
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		work += MGDStepView(obj, w, v.Sub(lo, hi), sched(stepBase+steps), scratch)
		steps++
	}
	return work, steps
}
