package core

import (
	"fmt"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/data"
	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/glm"
	"mllibstar/internal/lbfgs"
	"mllibstar/internal/obs"
	"mllibstar/internal/sparse"
	"mllibstar/internal/vec"
)

// twoLoopWorkFactor is the work charged for one two-loop recursion, per
// stored pair per model coordinate (4 passes over the vectors).
const twoLoopWorkFactor = 4

// lbfgsStep is the optimizer step both L-BFGS schedules share: the driver
// runs it under Tree; under AllReduce replica 0 runs it once for the
// identical replicas, and every executor is charged the replicated cost.
type lbfgsStep struct {
	obj   glm.Objective
	opts  lbfgs.Options
	st    *lbfgs.State
	total float64   // training rows
	w, g  []float64 // the iterate and its gradient
	f     float64   // the objective at w
	dir   []float64 // the search direction at w
	gd    float64   // g·dir
	trial []float64 // the line search's trial point
}

// gradient takes the aggregated [Σ∇l ; Σl] at w, scaled by mul/total (mul
// is 1 for a sum, k for an average of k partials), adds the regulariser's
// gradient and value, and records the curvature pair.
func (o *lbfgsStep) gradient(agg []float64, mul float64) {
	g := o.g
	copy(g, agg[:len(g)])
	vec.Scale(g, mul/o.total)
	for j := range g {
		g[j] += o.obj.Reg.DerivAt(o.w[j])
	}
	o.f = agg[len(g)]*mul/o.total + o.obj.Reg.Value(o.w)
	o.st.Update(o.w, g)
}

// twoLoop is the work of one two-loop recursion over the stored pairs.
func (o *lbfgsStep) twoLoop() float64 {
	return twoLoopWorkFactor * float64(o.st.Pairs()+1) * float64(len(o.w))
}

// descend sets the search direction at w, reset to steepest descent on
// ascent.
func (o *lbfgsStep) descend() { o.dir, o.gd = o.st.Descent(o.g) }

// try moves the trial point to w + step·dir.
func (o *lbfgsStep) try(step float64) {
	copy(o.trial, o.w)
	vec.AddScaled(o.trial, o.dir, step)
}

// armijo reports whether the trial point, whose losses over every training
// row sum to lossSum, decreases the objective sufficiently for step.
func (o *lbfgsStep) armijo(lossSum, step float64) bool {
	fNew := lossSum/o.total + o.obj.Reg.Value(o.trial)
	return fNew <= o.f+o.opts.ArmijoC*step*o.gd
}

// fullBatchLBFGS is spark.ml's distributed L-BFGS: every iteration computes
// the exact gradient over all partitions, and the line search evaluates
// trial objectives with further distributed passes. The optimizer step is
// lbfgsStep's on both paths; each path keeps its own stage schedule.
func fullBatchLBFGS(r *run) trainer {
	st := lbfgs.New(lbfgs.Options{})
	o := &lbfgsStep{obj: r.prm.Objective, opts: st.Options(), st: st, total: float64(r.total),
		w: make([]float64, r.dim), g: make([]float64, r.dim), trial: make([]float64, r.dim)}
	if r.agg == Tree {
		return lbfgsTree(r, o)
	}
	return lbfgsAllReduce(r, o)
}

// lbfgsTree is the spark.ml pattern: the driver owns the model and the
// optimizer state; every gradient and every line-search evaluation is a
// stage whose task descriptors broadcast the model and whose results fold
// through the tree.
func lbfgsTree(r *run, o *lbfgsStep) trainer {
	dim, obj := r.dim, o.obj
	// gradStage aggregates [Σ∇l ; Σl] at w and takes the optimizer step's
	// gradient half. The fused slab pass runs as the task's pure closure;
	// its virtual charge stays the two-pass cost (gradient + loss) — fusion
	// is a wall-clock optimization, not a simulated one.
	gradStage := func(p *des.Proc, t int) {
		w := o.w
		sum := r.ctx.TreeAggregateVec(p, r.tag(t), dim+1, r.aggs, sparse.WireBytesFor(w, nil),
			func(i int) ([]float64, float64) {
				out := r.ctx.GetVec(dim + 1)
				loss, work := data.GradAndLoss(obj, w, r.parts[i], out[:dim])
				out[dim] = loss
				return out, float64(work) * 2
			})
		o.gradient(sum, 1)
		r.ctx.PutVec(sum)
	}
	// lossStage sums the losses at the trial point (cheaper result, same
	// broadcast) for the line search.
	lossStage := func(p *des.Proc, tag string) float64 {
		trial := o.trial
		sum := r.ctx.TreeAggregateVec(p, tag, 1, r.aggs, sparse.WireBytesFor(trial, nil),
			func(i int) ([]float64, float64) {
				out := r.ctx.GetVec(1)
				out[0] = data.LossSum(obj, trial, r.parts[i])
				return out, float64(r.parts[i].NNZ())
			})
		loss := sum[0]
		r.ctx.PutVec(sum)
		return loss
	}

	return trainer{
		model: o.w,
		start: func(p *des.Proc) { gradStage(p, 0) },
		step: func(p *des.Proc, t int) bool {
			if lbfgs.Converged(o.g) {
				return false
			}
			r.driverUpdate(p, o.twoLoop())
			o.descend()
			step := o.opts.InitialStep
			for ls := 0; ls < o.opts.MaxLineSearch; ls++ {
				o.try(step)
				if o.armijo(lossStage(p, fmt.Sprintf("ls%d.%d", t, ls)), step) {
					copy(o.w, o.trial)
					gradStage(p, t)
					r.updated(p, t, r.ctx.Cluster.Driver, 1)
					return true
				}
				step /= 2
			}
			return false // line search exhausted
		},
	}
}

// lbfgsAllReduce is the MLlib*-style pattern: executors hold identical
// replicas of the model and optimizer state; the gradient is combined with
// AllReduce and line-search losses with a scalar AllReduce, all inside one
// stage per iteration, so the driver only schedules. Because the simulation
// is deterministic and the replicas identical, replica 0 runs the optimizer
// step once, every executor is charged its cost, and barriers order the
// handoff (replica 0 always writes before any reader passes the barrier,
// because the barrier releases only after all arrive).
func lbfgsAllReduce(r *run, o *lbfgsStep) trainer {
	k, dim, obj := r.k, r.dim, o.obj
	execs := r.ctx.Cluster.Execs
	// Per executor, the [gradient ; loss] partial the collective averages in
	// place and the line-search loss (one element of losses). No message
	// keeps a reference to them (the collectives copy or compress what they
	// send), so each iteration clears and refills them.
	partials := make([][]float64, k)
	for i := range partials {
		partials[i] = make([]float64, dim+1)
	}
	losses := make([]float64, k)
	// Replica 0's decisions for the others: accept (this trial passed) and
	// done (converged, or the line search exhausted: the run ends).
	var accept, done bool

	// iteration runs one full L-BFGS step inside a stage, on executor
	// index i, synchronized by bar.
	iteration := func(p *des.Proc, ex *engine.Executor, i, it int, bar *des.Barrier) {
		// Partial gradient and loss over the local partition. The work is
		// structural (one gradient pass + one loss pass over the partition's
		// nonzeros), so the charge overlaps the arithmetic on the offload
		// pool. The closure only reads w — the next write to w (replica 0's
		// line-search acceptance) sits behind the AllReduce and barrier this
		// closure's join precedes.
		partial := partials[i]
		if allreduce.OverlapEnabled() {
			// Overlapped schedule: hand the collective a two-pass producer
			// instead of a finished vector, so gradient chunks hit the wire
			// while later coordinate blocks are still being accumulated. Bits
			// and total charge match the one-shot pass exactly (data.GradStream
			// contract); only virtual time moves.
			clear(partial)
			gs := data.NewGradStream(obj, o.w, r.parts[i], partial, true, float64(r.parts[i].NNZ())*2)
			allreduce.AverageProduced(p, ex, execs, i, fmt.Sprintf("lbg%d", it), partial, gs)
		} else {
			ex.ChargeAsync(p, float64(r.parts[i].NNZ())*2, func() {
				clear(partial)
				partial[dim], _ = data.GradAndLoss(obj, o.w, r.parts[i], partial[:dim])
			})
			allreduce.Average(p, ex, execs, i, fmt.Sprintf("lbg%d", it), partial)
		}

		ex.ChargeKind(p, o.twoLoop(), obs.PhaseUpdate, r.note)
		if i == 0 {
			o.gradient(partial, float64(k))
			if done = lbfgs.Converged(o.g); !done {
				o.descend()
			}
		}
		bar.Arrive(p)
		if done {
			return
		}
		// Line search: each trial is a local loss pass plus a scalar
		// AllReduce so all replicas observe the same total.
		step := o.opts.InitialStep
		for ls := 0; ls < o.opts.MaxLineSearch; ls++ {
			if i == 0 {
				o.try(step)
				accept = false
			}
			bar.Arrive(p) // trial visible to all replicas
			lossVec := losses[i : i+1]
			ex.ChargeAsync(p, float64(r.parts[i].NNZ()), func() {
				lossVec[0] = data.LossSum(obj, o.trial, r.parts[i])
			})
			allreduce.Sum(p, ex, execs, i, fmt.Sprintf("ls%d.%d", it, ls), lossVec)
			if i == 0 {
				if accept = o.armijo(lossVec[0], step); accept {
					copy(o.w, o.trial)
				}
				step /= 2
			}
			bar.Arrive(p) // decision visible to all replicas
			if accept {
				return
			}
		}
		done = true
	}

	return trainer{model: o.w, step: func(p *des.Proc, t int) bool {
		sink := r.ctx.Cluster.Net.Sink()
		name := fmt.Sprintf("lbfgs-it%d", t)
		bar := des.NewBarrier(r.ctx.Cluster.Sim, name, k)
		bar.Observe(func(w *des.Proc, gen int, arrive, release float64) {
			sink.CausalBarrier(name, gen, w, arrive, release)
		})
		r.allReduceStage(p, t, nil, func(p *des.Proc, ex *engine.Executor, i int) { iteration(p, ex, i, t, bar) })
		if done {
			return false
		}
		r.updated(p, t, "", 1)
		return true
	}}
}
