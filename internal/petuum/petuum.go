// Package petuum implements a Petuum-like trainer on the parameter-server
// substrate, following the paper's description of Petuum's GLM training:
//
//   - SendModel paradigm with per-batch communication: each communication
//     step a worker pulls the model, processes one mini batch, and pushes
//     its model delta to the servers.
//   - When the regularization term is zero, the worker runs parallel SGD
//     inside the batch (one update per example), so each communication step
//     carries many model updates.
//   - When the regularization term is nonzero, the worker performs one
//     batch gradient-descent update per step — dense updates per batch are
//     too expensive for per-example application, which is exactly why the
//     paper observes Petuum falling behind on L2-regularized workloads.
//   - Aggregation is model summation in original Petuum and model averaging
//     in Petuum* (the paper's corrected variant); SSP staleness is
//     configurable.
package petuum

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
)

// System labels for the two aggregation rules.
const (
	System     = "Petuum"  // model summation (the original implementation)
	SystemStar = "Petuum*" // model averaging (the paper's corrected variant)
)

// Summation selects between Petuum (true) and Petuum* (false).
type Summation bool

// Train runs the Petuum-like trainer over the given worker nodes. parts
// must have one partition per node, in node order.
func Train(sim *des.Sim, net *simnet.Network, nodeNames []string, parts []data.View,
	dim int, prm train.Params, evalData []glm.Example, dataset string, summation Summation) (*train.Result, error) {

	if err := prm.Validate(); err != nil {
		return nil, err
	}
	k := len(nodeNames)
	if len(parts) != k {
		return nil, fmt.Errorf("petuum: %d partitions for %d workers", len(parts), k)
	}
	if prm.BatchFraction <= 0 {
		prm.BatchFraction = 0.01
	}
	system := SystemStar
	scale := 1 / float64(k)
	if summation {
		system = System
		scale = 1
	}
	deploy, err := ps.New(sim, net, nodeNames, ps.Config{
		Dim: dim, Servers: k, Workers: k, Staleness: prm.Staleness, CombineScale: scale,
	})
	if err != nil {
		return nil, err
	}

	ev := train.NewEvaluator(system, dataset, prm.Objective, evalData, prm.EvalEvery)
	ev.Staleness = prm.Staleness
	ev.StopAt(prm.TargetObjective)
	res := &train.Result{System: system, Curve: ev.Curve}
	sched := prm.Schedule()
	_, regIsNone := prm.Objective.Reg.(glm.None)
	stop := false

	for r := 0; r < k; r++ {
		r := r
		node := net.Node(nodeNames[r])
		part := parts[r]
		batchSize := max(1, int(prm.BatchFraction*float64(part.NumRows())))
		sim.Spawn(fmt.Sprintf("petuum:worker%d", r), func(p *des.Proc) {
			cursor := 0
			// Worker-owned buffers, reused across steps: the pull target, the
			// pushed delta (Push copies what it sends), the gradient scratch,
			// and the batch's touched coordinates with their marks.
			w := make([]float64, dim)
			delta := make([]float64, dim)
			scratch := make([]float64, dim)
			var touched []int32
			var mark []uint8
			if regIsNone {
				mark = make([]uint8, dim)
			}
			jitter := detrand.Worker(prm.Seed, r)
			for t := 1; t <= prm.MaxSteps && !stop; t++ {
				if r == 0 {
					// Step attribution for the event log follows worker 0's
					// clock; other workers drift within the SSP slack.
					net.Sink().SetStep(t, p.Now())
				}
				deploy.PullInto(p, node.Name(), r, t-1, w)
				if r == 0 {
					// The model pulled at clock t−1 reflects t−1 completed
					// communication steps.
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
				span1, span2, next := window(part, cursor, batchSize)
				cursor = next
				batchRows := span1.NumRows() + span2.NumRows()
				eta := sched(t - 1)
				// The step's work is structural — nonzeros in the batch, plus
				// the dense delta construction when regularized — so the
				// charge is known before the arithmetic runs and the delta
				// computation overlaps it on the offload pool. The closure is
				// pure: w, scratch and delta are this worker's private buffers,
				// batch is read-only.
				work := span1.NNZ() + span2.NNZ()
				if !regIsNone {
					work += 2 * dim
				}
				effort := float64(work)
				if prm.ComputeJitter > 0 {
					effort *= 1 + prm.ComputeJitter*jitter.Float64()
				}
				node.ComputeAsyncKind(p, effort, obs.PhaseCompute, "", func() {
					if regIsNone {
						// Parallel SGD inside the batch: many updates per step.
						// A wrapping window is two contiguous spans; running
						// them back to back (stepBase continuing across the
						// seam) is the same per-example update sequence the
						// gathered batch produced. delta holds the locally
						// refined model, then its difference to the pulled one
						// — on the batch's touched coordinates only: elsewhere
						// the dense w[j] + -1·w[j] is +0 for a finite model,
						// and PushTouched sends nothing else.
						touched = span2.AppendTouched(span1.AppendTouched(touched[:0], mark), mark)
						for _, j := range touched {
							delta[j] = w[j]
						}
						opt.LocalPassView(prm.Objective, delta, span1, opt.Const(eta), 0, nil)
						if span2.NumRows() > 0 {
							opt.LocalPassView(prm.Objective, delta, span2, opt.Const(eta), span1.NumRows(), nil)
						}
						for _, j := range touched {
							delta[j] += -1 * w[j] // vec.AddScaled(delta, w, -1), coordinate j
						}
					} else {
						// One dense batch-GD update per communication step;
						// the loop overwrites every coordinate of delta.
						data.AddGradient(prm.Objective, w, span1, scratch) // scratch = Σ∇l
						if span2.NumRows() > 0 {
							data.AddGradient(prm.Objective, w, span2, scratch)
						}
						inv := eta / float64(batchRows)
						for j := 0; j < dim; j++ {
							delta[j] = -inv*scratch[j] - eta*prm.Objective.Reg.DerivAt(w[j])
							scratch[j] = 0
						}
					}
				})
				upd := int64(1)
				if regIsNone {
					upd = int64(batchRows)
				}
				res.Updates += upd
				net.Sink().Updates(t, node.Name(), upd, p.Now())
				if regIsNone {
					deploy.PushTouched(p, node.Name(), r, t, delta, touched)
				} else {
					deploy.Push(p, node.Name(), r, t, delta)
				}
			}
			if r == 0 && !stop {
				// Final pull so the curve includes the fully-merged model.
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

// window returns the batch of size n starting at cursor as up to two
// contiguous sub-views of the partition — the second non-empty only when the
// window wraps around the end — plus the next cursor position. The old
// wrap-around path gathered the two spans into a freshly allocated slice;
// sub-views make every window, wrapping or not, a pair of rowPtr ranges.
func window(part data.View, cursor, n int) (a, b data.View, next int) {
	rows := part.NumRows()
	if n >= rows {
		return part, data.View{}, 0
	}
	if cursor+n <= rows {
		return part.Sub(cursor, cursor+n), data.View{}, (cursor + n) % rows
	}
	rem := n - (rows - cursor)
	return part.Sub(cursor, rows), part.Sub(0, rem), rem
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
