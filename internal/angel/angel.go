// Package angel implements an Angel-like trainer on the parameter-server
// substrate, following the paper's description of Angel's GLM training:
//
//   - SendModel paradigm with per-epoch communication: each communication
//     step a worker pulls the model, runs mini-batch gradient descent over
//     its entire local partition (one dense update per batch), and pushes
//     its model delta.
//   - For every batch Angel allocates a fresh dense vector to accumulate
//     the batch gradient and garbage-collects it afterwards; with small
//     batches the allocation/GC overhead dominates, which is the paper's
//     explanation for Angel's inefficiency at small batch sizes. This cost
//     is modelled as AllocWorkPerDim work units per batch per model
//     coordinate.
package angel

import (
	"fmt"

	"mllibstar/internal/data"
	"mllibstar/internal/des"
	"mllibstar/internal/detrand"
	"mllibstar/internal/glm"
	"mllibstar/internal/obs"
	"mllibstar/internal/opt"
	"mllibstar/internal/ps"
	"mllibstar/internal/simnet"
	"mllibstar/internal/train"
	"mllibstar/internal/vec"
)

// System is the curve label for this trainer.
const System = "Angel"

// AllocWorkPerDim is the modelled cost, in work units per model coordinate,
// of allocating and collecting the per-batch gradient vector.
const AllocWorkPerDim = 2.0

// Train runs the Angel-like trainer over the given worker nodes. parts must
// have one partition per node, in node order.
func Train(sim *des.Sim, net *simnet.Network, nodeNames []string, parts []data.View,
	dim int, prm train.Params, evalData []glm.Example, dataset string) (*train.Result, error) {

	if err := prm.Validate(); err != nil {
		return nil, err
	}
	k := len(nodeNames)
	if len(parts) != k {
		return nil, fmt.Errorf("angel: %d partitions for %d workers", len(parts), k)
	}
	if prm.BatchFraction <= 0 {
		prm.BatchFraction = 0.01
	}
	deploy, err := ps.New(sim, net, nodeNames, ps.Config{
		Dim: dim, Servers: k, Workers: k, Staleness: prm.Staleness, CombineScale: 1 / float64(k),
	})
	if err != nil {
		return nil, err
	}

	ev := train.NewEvaluatorInto(net.Sink(), System, dataset, prm.Objective, evalData, prm.EvalEvery)
	ev.Staleness = prm.Staleness
	ev.StopAt(prm.TargetObjective)
	res := &train.Result{System: System, Curve: ev.Curve}
	sched := prm.Schedule()
	_, regIsNone := prm.Objective.Reg.(glm.None)
	stop := false

	for r := 0; r < k; r++ {
		r := r
		node := net.Node(nodeNames[r])
		part := parts[r]
		batchSize := maxInt(1, int(prm.BatchFraction*float64(part.NumRows())))
		sim.Spawn(fmt.Sprintf("angel:worker%d", r), func(p *des.Proc) {
			// Worker-owned buffers, reused across steps: the pull target, the
			// pushed delta (Push copies what it sends) and the batch-gradient
			// scratch.
			w := make([]float64, dim)
			delta := make([]float64, dim)
			scratch := &opt.MGDScratch{}
			jitter := detrand.Worker(prm.Seed, r)
			for t := 1; t <= prm.MaxSteps && !stop; t++ {
				if r == 0 {
					// Step attribution for the event log follows worker 0's
					// clock; other workers drift within the SSP slack.
					net.Sink().SetStep(t, p.Now())
				}
				deploy.PullInto(p, node.Name(), r, t-1, w)
				if r == 0 {
					if ev.Due(t - 1) {
						res.FinalW = append(res.FinalW[:0], w...)
					}
					if ev.Record(t-1, p.Now(), w) {
						stop = true
						break
					}
					res.CommSteps = t
					if prm.MaxSimTime > 0 && p.Now() >= prm.MaxSimTime {
						stop = true
						break
					}
				}
				// One epoch of mini-batch GD over the local partition. The
				// epoch's work is structural — every batch costs its
				// nonzeros plus a dense regularization sweep — so the charge
				// is known upfront and the arithmetic overlaps it on the
				// offload pool.
				eta := sched(t - 1)
				batches := 0
				if part.NumRows() > 0 {
					batches = (part.NumRows() + batchSize - 1) / batchSize
				}
				work := float64(part.NNZ())
				if !regIsNone {
					work += float64(batches * dim)
				}
				// Per-batch gradient-vector allocation and collection. This
				// charge models Angel's real per-batch allocate/GC churn and
				// is deliberately NOT removed by the buffer-pool work in this
				// repository: the inefficiency is the phenomenon under study
				// (the simulation itself reuses scratch; only the virtual
				// cost stays).
				allocWork := float64(batches) * AllocWorkPerDim * float64(dim)
				effort := work + allocWork
				if prm.ComputeJitter > 0 {
					effort *= 1 + prm.ComputeJitter*jitter.Float64()
				}
				node.ComputeAsyncKind(p, effort, obs.PhaseCompute, "", func() {
					// delta holds the locally refined model, then the
					// difference to the pulled one.
					copy(delta, w)
					opt.LocalMGDEpochView(prm.Objective, delta, part, batchSize, opt.Const(eta), 0, scratch)
					vec.AddScaled(delta, w, -1)
				})
				res.Updates += int64(batches)
				net.Sink().Updates(t, node.Name(), int64(batches), p.Now())
				deploy.Push(p, node.Name(), r, t, delta)
			}
			if r == 0 && !stop {
				deploy.PullInto(p, node.Name(), r, prm.MaxSteps, w)
				ev.Record(prm.MaxSteps, p.Now(), w)
				res.FinalW = append(res.FinalW[:0], w...)
			}
		})
	}
	res.SimTime = sim.Run()
	ev.Wait()
	res.TotalBytes = net.TotalBytes()
	if res.FinalW == nil {
		res.FinalW = make([]float64, dim)
	}
	return res, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
