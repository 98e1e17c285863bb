package core

import (
	"fmt"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/data"
	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/opt"
	"mllibstar/internal/vec"
)

// svrg is distributed SVRG on the MLlib* architecture: each communication
// step is one outer SVRG iteration executed as a single BSP stage in which
// every executor (1) computes its partial snapshot gradient and
// AllReduce-averages it into the full gradient μ, (2) runs one inner epoch of
// variance-corrected per-example steps over its partition, and (3)
// AllReduce-averages the local models. It demonstrates that the paper's
// communication pattern composes with stronger optimizers than plain SGD:
// both collectives are the same Reduce-Scatter/AllGather shuffles, so the
// per-step traffic is exactly 2×MLlib*'s.
func svrg(r *run) trainer {
	prm, k, dim := r.prm, r.k, r.dim
	execs := r.ctx.Cluster.Execs
	// The model average delta-encodes against ref; the snapshot gradient μ
	// uses the nil reference — its partials compress by their exact-zero
	// coordinates.
	locals, ref := r.replicas()
	states := make([]*opt.SVRG, k)
	for i := range states {
		states[i] = opt.NewSVRG(dim, prm.Eta)
	}
	// partials[i] is written by task i's pure closure and consumed by its Run
	// after the engine's join — the join orders the two.
	partials := make([][]float64, k)
	updates := int64(r.total)

	return trainer{model: locals[0], step: func(p *des.Proc, t int) bool {
		copy(ref, locals[0])
		// (1) Snapshot: partial loss gradient at the current (synchronized)
		// model, offloaded as the pure closure — unless the overlap is on,
		// which produces it inside the μ collective instead.
		snapshot := func(i int) float64 {
			partials[i] = r.ctx.GetVec(dim)
			return float64(data.AddGradient(prm.Objective, locals[i], r.parts[i], partials[i]))
		}
		if allreduce.OverlapEnabled() {
			snapshot = nil
		}
		r.allReduceStage(p, t, snapshot, func(p *des.Proc, ex *engine.Executor, i int) {
			local := locals[i]
			partial := partials[i]
			if allreduce.OverlapEnabled() {
				// Overlap on: the snapshot partial is produced block by block
				// inside the μ collective itself, so early chunks ship while
				// later coordinates are still accumulating. Same bits, same
				// total charge as the Pure prefetch the non-overlapped task
				// uses.
				partial = r.ctx.GetVec(dim)
				gs := data.NewGradStream(prm.Objective, local, r.parts[i], partial, false, float64(r.parts[i].NNZ()))
				allreduce.AverageProduced(p, ex, execs, i, fmt.Sprintf("svrg-mu%d", t), partial, gs)
			} else {
				allreduce.Average(p, ex, execs, i, fmt.Sprintf("svrg-mu%d", t), partial)
			}

			// (2) Inner epoch of corrected steps. Its work is structural —
			// every Step costs 2·nnz for the two margins plus a dense
			// μ/regularization sweep — so the charge is known upfront and the
			// arithmetic overlaps it on the offload pool. SetSnapshot copies,
			// so the pooled partial dies here.
			inner := 2*r.parts[i].NNZ() + r.parts[i].NumRows()*dim
			ex.ChargeAsync(p, float64(inner), func() {
				vec.Scale(partial, float64(k)/float64(r.total)) // mean over all examples
				states[i].SetSnapshot(local, partial)
				states[i].Pass(prm.Objective, local, r.parts[i])
			})
			r.ctx.PutVec(partial)

			// (3) Model averaging, delta-encoded against the step-start
			// snapshot when sparse exchange is on.
			allreduce.AverageDelta(p, ex, execs, i, fmt.Sprintf("svrg-w%d", t), local, ref)
		})
		r.updated(p, t, "", updates)
		return true
	}}
}
