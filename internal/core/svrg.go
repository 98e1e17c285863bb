package core

import (
	"fmt"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/data"
	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/glm"
	"mllibstar/internal/opt"
	"mllibstar/internal/train"
	"mllibstar/internal/vec"
)

// SystemSVRG is the curve label for the variance-reduced variant.
const SystemSVRG = "MLlib*-SVRG"

// TrainSVRG runs distributed SVRG on the MLlib* architecture: each
// communication step is one outer SVRG iteration executed as a single BSP
// stage in which every executor (1) computes its partial snapshot gradient
// and AllReduce-averages it into the full gradient μ, (2) runs one inner
// epoch of variance-corrected per-example steps over its partition, and
// (3) AllReduce-averages the local models. It demonstrates that the paper's
// communication pattern composes with stronger optimizers than plain SGD:
// both collectives are the same Reduce-Scatter/AllGather shuffles, so the
// per-step traffic is exactly 2×MLlib*'s.
//
// SVRG needs a differentiable loss; hinge is rejected.
func TrainSVRG(ctx *engine.Context, parts []data.View, dim int, prm train.Params,
	evalData []glm.Example, dataset string) (*train.Result, error) {

	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if _, nonSmooth := prm.Objective.Loss.(glm.Hinge); nonSmooth {
		return nil, fmt.Errorf("core: SVRG needs a differentiable loss; use logistic or squared")
	}
	k := ctx.NumExecutors()
	if len(parts) != k {
		return nil, fmt.Errorf("core: %d partitions for %d executors", len(parts), k)
	}
	total := 0
	for _, part := range parts {
		total += part.NumRows()
	}
	if total == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}

	sim := ctx.Cluster.Sim
	ev := train.NewEvaluator(SystemSVRG, dataset, prm.Objective, evalData, prm.EvalEvery)
	ev.StopAt(prm.TargetObjective)
	res := &train.Result{System: SystemSVRG, Curve: ev.Curve}

	locals := make([][]float64, k)
	states := make([]*opt.SVRG, k)
	for i := range locals {
		locals[i] = make([]float64, dim)
		states[i] = opt.NewSVRG(dim, prm.Eta)
	}

	// partials[i] is written by task i's pure closure and consumed by its Run
	// after the engine's join — the join orders the two.
	partials := make([][]float64, k)
	// ref snapshots the synchronized model at the top of each outer step (see
	// core.Train): the model AllReduce delta-encodes against it when sparse
	// exchange is on. The snapshot gradient μ uses the nil reference — its
	// partials compress by their exact-zero coordinates.
	ref := make([]float64, dim)

	sim.Spawn("driver:mllibstar-svrg", func(p *des.Proc) {
		ev.Record(0, p.Now(), locals[0])
		for t := 1; t <= prm.MaxSteps; t++ {
			ctx.Cluster.Net.Sink().SetStep(t, p.Now())
			copy(ref, locals[0])
			tasks := make([]engine.Task, k)
			for i := 0; i < k; i++ {
				i := i
				tasks[i] = engine.Task{
					Exec: ctx.Cluster.Execs[i],
					Run: func(p *des.Proc, ex *engine.Executor) (any, float64) {
						local := locals[i]
						partial := partials[i]
						if allreduce.OverlapEnabled() {
							// Overlap on: the snapshot partial is produced block
							// by block inside the μ collective itself, so early
							// chunks ship while later coordinates are still
							// accumulating. Same bits, same total charge as the
							// Pure prefetch the non-overlapped task uses.
							partial = ctx.GetVec(dim)
							gs := data.NewGradStream(prm.Objective, local, parts[i], partial, false, float64(parts[i].NNZ()))
							allreduce.AverageProduced(p, ex, ctx.Cluster.Execs, i, fmt.Sprintf("svrg-mu%d", t), partial, gs)
						} else {
							allreduce.Average(p, ex, ctx.Cluster.Execs, i, fmt.Sprintf("svrg-mu%d", t), partial)
						}

						// (2) Inner epoch of corrected steps. Its work is
						// structural — every Step costs 2·nnz for the two
						// margins plus a dense μ/regularization sweep — so
						// the charge is known upfront and the arithmetic
						// overlaps it on the offload pool. SetSnapshot
						// copies, so the pooled partial dies here.
						inner := 2*parts[i].NNZ() + parts[i].NumRows()*dim
						ex.ChargeAsync(p, float64(inner), func() {
							vec.Scale(partial, float64(k)/float64(total)) // mean over all examples
							states[i].SetSnapshot(local, partial)
							states[i].Pass(prm.Objective, local, parts[i].Examples())
						})
						ctx.PutVec(partial)

						// (3) Model averaging, delta-encoded against the
						// step-start snapshot when sparse exchange is on.
						allreduce.AverageDelta(p, ex, ctx.Cluster.Execs, i, fmt.Sprintf("svrg-w%d", t), local, ref)
						return nil, 0
					},
				}
				if !allreduce.OverlapEnabled() {
					// (1) Snapshot: partial loss gradient at the current
					// (synchronized) model, offloaded as the pure closure.
					tasks[i].Pure = func() float64 {
						partial := ctx.GetVec(dim)
						partials[i] = partial
						work := data.AddGradient(prm.Objective, locals[i], parts[i], partial)
						return float64(work)
					}
				}
			}
			ctx.RunStage(p, fmt.Sprintf("svrg-%d", t), tasks)
			var stepUpdates int64
			for i := range parts {
				stepUpdates += int64(parts[i].NumRows())
			}
			res.Updates += stepUpdates
			ctx.Cluster.Net.Sink().Updates(t, "", stepUpdates, p.Now())

			res.CommSteps = t
			if ev.Record(t, p.Now(), locals[0]) {
				break
			}
			if prm.MaxSimTime > 0 && p.Now() >= prm.MaxSimTime {
				break
			}
		}
	})
	res.SimTime = sim.Run()
	ev.Wait()
	res.FinalW = vec.Copy(locals[0])
	res.TotalBytes = ctx.Cluster.Net.TotalBytes()
	return res, nil
}
