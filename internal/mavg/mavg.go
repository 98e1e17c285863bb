// Package mavg implements "MLlib + model averaging", the intermediate
// design point of the paper's Figure 3(b): the SendModel paradigm (each
// executor runs many local SGD updates per communication step and ships its
// local model) combined with MLlib's original communication pattern
// (broadcast from the driver, hierarchical treeAggregate back to it).
//
// It removes bottleneck B1 (one update per step) but keeps bottleneck B2
// (the driver and intermediate aggregators serialize all model traffic),
// which is what isolates the contribution of AllReduce in the evaluation.
package mavg

import (
	"fmt"

	"mllibstar/internal/data"
	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/glm"
	"mllibstar/internal/mllib"
	"mllibstar/internal/obs"
	"mllibstar/internal/opt"
	"mllibstar/internal/sparse"
	"mllibstar/internal/train"
	"mllibstar/internal/vec"
)

// System is the curve label for this trainer.
const System = "MLlib+MA"

// Train runs SendModel with model averaging over treeAggregate. parts must
// have one partition per executor, in executor order.
func Train(ctx *engine.Context, parts []data.View, dim int, prm train.Params,
	evalData []glm.Example, dataset string) (*train.Result, error) {

	if err := prm.Validate(); err != nil {
		return nil, err
	}
	k := ctx.NumExecutors()
	if len(parts) != k {
		return nil, fmt.Errorf("mavg: %d partitions for %d executors", len(parts), k)
	}

	sim := ctx.Cluster.Sim
	net := ctx.Cluster.Net
	driver := net.Node(ctx.Cluster.Driver)
	ev := train.NewEvaluatorInto(net.Sink(), System, dataset, prm.Objective, evalData, prm.EvalEvery)
	ev.StopAt(prm.TargetObjective)
	aggs := mllib.Aggregators(prm, k)
	sched := prm.Schedule()

	res := &train.Result{System: System, Curve: ev.Curve}
	w := make([]float64, dim)
	// Per-task optimizer scratch, reused across steps. Task i's closure for
	// step t+1 cannot start before step t's stage barrier, so each slot is
	// touched by one closure at a time.
	scratch := make([]*opt.PassScratch, k)
	for i := range scratch {
		scratch[i] = opt.NewPassScratch()
	}

	sim.Spawn("driver:mavg", func(p *des.Proc) {
		ev.Record(0, p.Now(), w)
		for t := 1; t <= prm.MaxSteps; t++ {
			ctx.Cluster.Net.Sink().SetStep(t, p.Now())
			stepW := w
			// The task descriptors broadcast stepW; with sparse exchange on,
			// the broadcast is charged at the model's nonzero-coded size, and
			// the local models ship back as deltas against stepW — the
			// reference every endpoint of this stage holds.
			sum := ctx.TreeAggregateVecDelta(p, fmt.Sprintf("ma%d", t), dim, aggs, sparse.WireBytesFor(stepW, nil), stepW,
				func(i int) ([]float64, float64) {
					local := ctx.GetVec(dim)
					copy(local, stepW)
					work := 0
					etaT := opt.Const(sched(t - 1))
					for pass := 0; pass < prm.LocalPasses; pass++ {
						work += opt.LocalPassView(prm.Objective, local, parts[i], etaT, 0, scratch[i])
					}
					return local, float64(work)
				})
			var stepUpdates int64
			for i := range parts {
				stepUpdates += int64(prm.LocalPasses * parts[i].NumRows())
			}
			res.Updates += stepUpdates
			ctx.Cluster.Net.Sink().Updates(t, "", stepUpdates, p.Now())
			// Model averaging at the driver: w ← (1/k)·Σ local models.
			copy(w, sum)
			vec.Scale(w, 1/float64(k))
			ctx.PutVec(sum)
			driver.ComputeKind(p, float64(dim), obs.PhaseUpdate, "model averaging")

			res.CommSteps = t
			if ev.Record(t, p.Now(), w) {
				break
			}
			if prm.MaxSimTime > 0 && p.Now() >= prm.MaxSimTime {
				break
			}
		}
	})
	res.SimTime = sim.Run()
	ev.Wait()
	res.FinalW = vec.Copy(w)
	res.TotalBytes = net.TotalBytes()
	return res, nil
}
