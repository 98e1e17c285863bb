// Package core implements MLlib*, the paper's contribution: the SendModel
// paradigm with model averaging (removing bottleneck B1 — one model update
// per communication step) executed over a driverless AllReduce built from
// two shuffle rounds (removing bottleneck B2 — the driver and intermediate
// aggregators serializing model traffic). This is Algorithm 3 of the paper.
//
// Each executor keeps a persistent local model. One communication step is a
// single BSP stage in which every executor (1) refines its local model with
// per-example SGD over its whole partition — using Bottou's lazily scaled
// update when an L2 term is present, (2) participates in Reduce-Scatter to
// average the partition of the model it owns, and (3) participates in
// AllGather to reassemble the full averaged model. The driver only
// schedules the stage; no model bytes ever flow through it.
package core

import (
	"fmt"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/data"
	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/opt"
	"mllibstar/internal/train"
	"mllibstar/internal/vec"
)

// System is the curve label for this trainer.
const System = "MLlib*"

// Train runs MLlib* on the cluster behind ctx. parts must have one
// partition per executor, in executor order. evalData is the out-of-band
// evaluation set; dataset labels the returned curve.
func Train(ctx *engine.Context, parts []data.View, dim int, prm train.Params,
	evalData data.View, dataset string) (*train.Result, error) {

	if err := prm.Validate(); err != nil {
		return nil, err
	}
	k := ctx.NumExecutors()
	if len(parts) != k {
		return nil, fmt.Errorf("core: %d partitions for %d executors", len(parts), k)
	}

	sim := ctx.Cluster.Sim
	net := ctx.Cluster.Net
	ev := train.NewEvaluatorInto(net.Sink(), System, dataset, prm.Objective, evalData, prm.EvalEvery)
	ev.StopAt(prm.TargetObjective)
	sched := prm.Schedule()

	res := &train.Result{System: System, Curve: ev.Curve}

	// Persistent per-executor local models — the heart of SendModel: they
	// live on the executors across steps and are never broadcast.
	locals := make([][]float64, k)
	for i := range locals {
		locals[i] = make([]float64, dim)
	}
	// Per-executor AdaGrad accumulators, also persistent across steps.
	var adagrads []*opt.AdaGrad
	if prm.AdaGrad {
		adagrads = make([]*opt.AdaGrad, k)
		for i := range adagrads {
			adagrads[i] = opt.NewAdaGrad(dim, prm.Eta)
		}
	}
	// Per-executor optimizer scratch, reused across steps. Each slot is only
	// touched by executor i's pure closure, one stage at a time.
	scratch := make([]*opt.PassScratch, k)
	for i := range scratch {
		scratch[i] = opt.NewPassScratch()
	}
	// ref snapshots the synchronized model at the top of each step — the
	// reference every executor's local already equals bitwise, against which
	// the AllReduce delta-encodes when sparse exchange is on. The snapshot is
	// simulation bookkeeping, not a modeled computation (each executor holds
	// the same bits as locals[i]), so it is not charged.
	ref := make([]float64, dim)

	sim.Spawn("driver:mllibstar", func(p *des.Proc) {
		ev.Record(0, p.Now(), locals[0])
		for t := 1; t <= prm.MaxSteps; t++ {
			ctx.Cluster.Net.Sink().SetStep(t, p.Now())
			copy(ref, locals[0])
			tasks := make([]engine.Task, k)
			for i := 0; i < k; i++ {
				i := i
				tasks[i] = engine.Task{
					Exec: ctx.Cluster.Execs[i],
					// UpdateModel: per-example SGD over the local partition
					// (lazy L2 when regularized), offloaded as the task's
					// pure closure — it touches only locals[i] and executor
					// i's private optimizer state. The learning rate is
					// constant within a step and decays (if configured)
					// across steps. With Splash-style reweighting the local
					// step size is scaled by k, as if the partition were the
					// whole dataset, before averaging.
					Pure: func() float64 {
						local := locals[i]
						work := 0
						if prm.AdaGrad {
							for pass := 0; pass < prm.LocalPasses; pass++ {
								work += adagrads[i].Pass(prm.Objective, local, parts[i])
							}
						} else {
							eta := sched(t - 1)
							if prm.Reweight {
								eta *= float64(k)
							}
							etaT := opt.Const(eta)
							for pass := 0; pass < prm.LocalPasses; pass++ {
								work += opt.LocalPassView(prm.Objective, local, parts[i], etaT, 0, scratch[i])
							}
						}
						return float64(work)
					},
					Run: func(p *des.Proc, ex *engine.Executor) (any, float64) {
						// Reduce-Scatter + AllGather: distributed averaging.
						// The exchange delta-encodes against the step-start
						// model when sparse communication is enabled.
						allreduce.AverageDelta(p, ex, ctx.Cluster.Execs, i, fmt.Sprintf("s%d", t), locals[i], ref)
						return nil, 0
					},
				}
			}
			ctx.RunStage(p, fmt.Sprintf("mllibstar-%d", t), tasks)
			var stepUpdates int64
			for i := range parts {
				stepUpdates += int64(prm.LocalPasses * parts[i].NumRows())
			}
			res.Updates += stepUpdates
			ctx.Cluster.Net.Sink().Updates(t, "", stepUpdates, p.Now())

			res.CommSteps = t
			// After AllReduce all locals hold the identical averaged model.
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
	res.TotalBytes = net.TotalBytes()
	return res, nil
}
