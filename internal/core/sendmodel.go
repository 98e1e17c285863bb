package core

import (
	"fmt"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/opt"
	"mllibstar/internal/sparse"
	"mllibstar/internal/vec"
)

// sendModel is SendModel with model averaging: MLlib+MA over Tree, MLlib*
// over AllReduce. Every step, each executor runs LocalPasses passes of
// per-example SGD (or AdaGrad) over its partition, and the models are
// averaged. The local update is one closure for both paths. Tree hands it a
// pooled copy of the model the driver broadcast and averages the folded sum
// at the driver; AllReduce hands it the executor's persistent local model
// and averages in the task, so the driver moves no model bytes.
func sendModel(r *run) trainer {
	prm, k, dim := r.prm, r.k, r.dim
	sched := prm.Schedule()
	// Per-executor optimizer scratch and AdaGrad accumulators, reused across
	// steps. Each slot is touched only by executor i's closure, one stage at
	// a time.
	scratch := make([]*opt.PassScratch, k)
	for i := range scratch {
		scratch[i] = opt.NewPassScratch()
	}
	var adagrads []*opt.AdaGrad
	if prm.AdaGrad {
		adagrads = make([]*opt.AdaGrad, k)
		for i := range adagrads {
			adagrads[i] = opt.NewAdaGrad(dim, prm.Eta)
		}
	}
	// update refines executor i's model in place for step t and returns the
	// work done. The learning rate is constant within a step and decays (if
	// configured) across steps. With Splash-style reweighting the local step
	// size is scaled by k, as if the partition were the whole dataset.
	update := func(i, t int, local []float64) float64 {
		work := 0
		if prm.AdaGrad {
			for pass := 0; pass < prm.LocalPasses; pass++ {
				work += adagrads[i].Pass(prm.Objective, local, r.parts[i])
			}
			return float64(work)
		}
		eta := sched(t - 1)
		if prm.Reweight {
			eta *= float64(k)
		}
		etaT := opt.Const(eta)
		for pass := 0; pass < prm.LocalPasses; pass++ {
			work += opt.LocalPassView(prm.Objective, local, r.parts[i], etaT, 0, scratch[i])
		}
		return float64(work)
	}
	updates := int64(prm.LocalPasses * r.total)

	if r.agg == Tree {
		w := make([]float64, dim)
		return trainer{model: w, step: func(p *des.Proc, t int) bool {
			// The task descriptors broadcast w; with sparse exchange on, the
			// broadcast is charged at the model's nonzero-coded size, and the
			// local models ship back as deltas against w — the reference
			// every endpoint of the stage holds.
			sum := r.ctx.TreeAggregateVecDelta(p, r.tag(t), dim, r.aggs, sparse.WireBytesFor(w, nil), w,
				func(i int) ([]float64, float64) {
					local := r.ctx.GetVec(dim)
					copy(local, w)
					return local, update(i, t, local)
				})
			r.updated(p, t, "", updates)
			// Model averaging at the driver: w ← (1/k)·Σ local models.
			copy(w, sum)
			vec.Scale(w, 1/float64(k))
			r.ctx.PutVec(sum)
			r.driverUpdate(p, float64(dim))
			return true
		}}
	}

	locals, ref := r.replicas()
	return trainer{model: locals[0], step: func(p *des.Proc, t int) bool {
		copy(ref, locals[0])
		r.allReduceStage(p, t,
			// The local update is the task's pure closure: it touches only
			// locals[i] and executor i's private optimizer state.
			func(i int) float64 { return update(i, t, locals[i]) },
			func(p *des.Proc, ex *engine.Executor, i int) {
				// Reduce-Scatter + AllGather: distributed averaging,
				// delta-encoded against the step-start model when sparse
				// communication is enabled.
				allreduce.AverageDelta(p, ex, r.ctx.Cluster.Execs, i, fmt.Sprintf("s%d", t), locals[i], ref)
			})
		// After AllReduce all locals hold the identical averaged model.
		r.updated(p, t, "", updates)
		return true
	}}
}
