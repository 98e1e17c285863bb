package lbfgs

import (
	"fmt"
	"math"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/data"
	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/glm"
	"mllibstar/internal/obs"
	"mllibstar/internal/sparse"
	"mllibstar/internal/train"
	"mllibstar/internal/vec"
)

// System labels for the two distributed variants.
const (
	System     = "LBFGS"  // gradient via treeAggregate through the driver (spark.ml)
	SystemStar = "LBFGS*" // gradient via AllReduce, replicated optimizer state
)

// DistConfig configures a distributed L-BFGS run.
type DistConfig struct {
	Objective glm.Objective
	MaxIters  int
	Opts      Options

	// AllReduce selects the MLlib*-style communication pattern: gradients
	// and line-search losses are combined with Reduce-Scatter/AllGather and
	// every executor maintains an identical replica of the optimizer state.
	// When false, aggregation flows through the driver as in spark.ml.
	AllReduce bool
	// Aggregators is the treeAggregate fan-in (0 = ceil(sqrt(k))).
	Aggregators int

	TargetObjective float64
	MaxSimTime      float64
	EvalEvery       int
	Seed            int64
}

// twoLoopWorkFactor is the work charged for one two-loop recursion, per
// stored pair per model coordinate (4 passes over the vectors).
const twoLoopWorkFactor = 4

// TrainDistributed runs full-batch distributed L-BFGS on the engine
// cluster. Each iteration computes the exact gradient over all partitions;
// the line search evaluates trial objectives with additional distributed
// passes, exactly as spark.ml does.
func TrainDistributed(ctx *engine.Context, parts []data.View, dim int, cfg DistConfig,
	evalData []glm.Example, dataset string) (*train.Result, error) {

	if _, nonSmooth := cfg.Objective.Loss.(glm.Hinge); nonSmooth {
		return nil, fmt.Errorf("lbfgs: hinge loss is not differentiable; use logistic or squared")
	}
	if cfg.MaxIters <= 0 {
		return nil, fmt.Errorf("lbfgs: MaxIters %d", cfg.MaxIters)
	}
	if err := train.CheckStop(cfg.TargetObjective, cfg.MaxSimTime, cfg.EvalEvery); err != nil {
		return nil, fmt.Errorf("lbfgs: %w", err)
	}
	k := ctx.NumExecutors()
	if len(parts) != k {
		return nil, fmt.Errorf("lbfgs: %d partitions for %d executors", len(parts), k)
	}
	cfg.Opts.defaults()
	total := 0
	for _, p := range parts {
		total += p.NumRows()
	}
	if total == 0 {
		return nil, fmt.Errorf("lbfgs: empty dataset")
	}
	system := System
	if cfg.AllReduce {
		system = SystemStar
	}
	ev := train.NewEvaluatorInto(ctx.Cluster.Net.Sink(), system, dataset, cfg.Objective, evalData, cfg.EvalEvery)
	ev.StopAt(cfg.TargetObjective)
	res := &train.Result{System: system, Curve: ev.Curve}

	if cfg.AllReduce {
		trainAllReduce(ctx, parts, dim, cfg, total, ev, res)
	} else {
		trainTree(ctx, parts, dim, cfg, total, ev, res)
	}
	res.SimTime = ctx.Cluster.Sim.Run()
	ev.Wait()
	res.TotalBytes = ctx.Cluster.Net.TotalBytes()
	return res, nil
}

// regGradient adds the regularization gradient to the averaged loss
// gradient.
func regGradient(obj glm.Objective, w, g []float64) {
	for j := range g {
		g[j] += obj.Reg.DerivAt(w[j])
	}
}

// trainTree is the spark.ml pattern: the driver owns the model and the
// optimizer state; every gradient and every line-search evaluation is a
// stage whose task descriptors broadcast the trial model and whose results
// aggregate through the tree.
func trainTree(ctx *engine.Context, parts []data.View, dim int, cfg DistConfig,
	total int, ev *train.Evaluator, res *train.Result) {

	k := ctx.NumExecutors()
	aggs := cfg.Aggregators
	if aggs <= 0 {
		aggs = int(math.Ceil(math.Sqrt(float64(k))))
	}
	driver := ctx.Cluster.Net.Node(ctx.Cluster.Driver)

	// gradStage aggregates [Σ∇l ; Σl] for the given model. The gradient and
	// loss passes run as the task's pure closure over pooled buffers; g is
	// copied out of the pooled sum so the buffer can be recycled while the
	// optimizer state retains the gradient.
	gradStage := func(p *des.Proc, tag string, w []float64) (g []float64, f float64) {
		sum := ctx.TreeAggregateVec(p, tag, dim+1, aggs, sparse.WireBytesFor(w, nil),
			func(i int) ([]float64, float64) {
				out := ctx.GetVec(dim + 1)
				// Fused slab pass; the virtual charge stays the interface
				// path's two-pass cost (gradient + loss) — fusion is a
				// wall-clock optimization, not a simulated one.
				loss, work := data.GradAndLoss(cfg.Objective, w, parts[i], out[:dim])
				out[dim] = loss
				return out, float64(work) * 2 // gradient + loss passes
			})
		g = vec.Copy(sum[:dim])
		f = sum[dim]/float64(total) + cfg.Objective.Reg.Value(w)
		ctx.PutVec(sum)
		vec.Scale(g, 1/float64(total))
		regGradient(cfg.Objective, w, g)
		return g, f
	}
	// lossStage evaluates only the objective (cheaper result, same
	// broadcast) for line-search trials.
	lossStage := func(p *des.Proc, tag string, w []float64) float64 {
		sum := ctx.TreeAggregateVec(p, tag, 1, aggs, sparse.WireBytesFor(w, nil),
			func(i int) ([]float64, float64) {
				out := ctx.GetVec(1)
				out[0] = data.LossSum(cfg.Objective, w, parts[i])
				return out, float64(parts[i].NNZ())
			})
		f := sum[0]/float64(total) + cfg.Objective.Reg.Value(w)
		ctx.PutVec(sum)
		return f
	}

	ctx.Cluster.Sim.Spawn("driver:lbfgs", func(p *des.Proc) {
		st := New(cfg.Opts)
		w := make([]float64, dim)
		ev.Record(0, p.Now(), w)
		g, f := gradStage(p, "lb0", w)
		st.Update(w, g)
		for it := 1; it <= cfg.MaxIters; it++ {
			ctx.Cluster.Net.Sink().SetStep(it, p.Now())
			if math.Sqrt(vec.Norm2Sq(g)) < gradTolerance {
				break
			}
			driver.ComputeKind(p, twoLoopWorkFactor*float64(st.Pairs()+1)*float64(dim), obs.PhaseUpdate, "two-loop")
			dir := st.Direction(g)
			gd := dot(g, dir)
			if gd >= 0 {
				st.pairs = st.pairs[:0]
				dir = st.Direction(g)
				gd = dot(g, dir)
			}
			step := cfg.Opts.InitialStep
			trial := make([]float64, dim)
			accepted := false
			var fNew float64
			for ls := 0; ls < cfg.Opts.MaxLineSearch; ls++ {
				copy(trial, w)
				vec.AddScaled(trial, dir, step)
				fNew = lossStage(p, fmt.Sprintf("ls%d.%d", it, ls), trial)
				if fNew <= f+cfg.Opts.ArmijoC*step*gd {
					accepted = true
					break
				}
				step /= 2
			}
			if !accepted {
				break
			}
			copy(w, trial)
			f = fNew
			g, f = gradStage(p, fmt.Sprintf("lb%d", it), w)
			st.Update(w, g)
			res.CommSteps = it
			res.Updates++
			ctx.Cluster.Net.Sink().Updates(it, ctx.Cluster.Driver, 1, p.Now())
			if ev.Record(it, p.Now(), w) {
				break
			}
			if cfg.MaxSimTime > 0 && p.Now() >= cfg.MaxSimTime {
				break
			}
		}
		res.FinalW = vec.Copy(w)
	})
}

// trainAllReduce is the MLlib*-style pattern: executors hold identical
// replicas of the model and optimizer state; the gradient is combined with
// AllReduce; line-search losses are combined with a scalar AllReduce. The
// driver only schedules one stage per iteration. Because the simulation is
// deterministic and the replicas are identical, the replica computation is
// performed once and its cost charged to every executor.
func trainAllReduce(ctx *engine.Context, parts []data.View, dim int, cfg DistConfig,
	total int, ev *train.Evaluator, res *train.Result) {

	k := ctx.NumExecutors()
	st := New(cfg.Opts)
	w := make([]float64, dim)
	f := math.NaN()
	done := false

	// Buffers that live for the whole run: replica 0's gradient, and per
	// executor the [gradient ; loss] partial the collective averages in
	// place and the line-search loss (one element of losses). No message
	// keeps a reference to them (the collectives copy or compress what they
	// send), so each iteration clears and refills them.
	g := make([]float64, dim)
	partials := make([][]float64, k)
	for i := range partials {
		partials[i] = make([]float64, dim+1)
	}
	losses := make([]float64, k)

	// Shared per-iteration state. In a real replicated L-BFGS every
	// executor computes these identically; here replica 0 computes them
	// once, every executor is charged the replicated cost, and barriers
	// order the handoff (replica 0 always writes before any reader passes
	// the barrier, because the barrier releases only after all arrive).
	shared := struct {
		dir    []float64
		gd     float64
		trial  []float64
		accept bool
		stop   bool // line search exhausted or converged
	}{trial: make([]float64, dim)}

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
			gs := data.NewGradStream(cfg.Objective, w, parts[i], partial, true, float64(parts[i].NNZ())*2)
			allreduce.AverageProduced(p, ex, ctx.Cluster.Execs, i, fmt.Sprintf("lbg%d", it), partial, gs)
		} else {
			ex.ChargeAsync(p, float64(parts[i].NNZ())*2, func() {
				clear(partial)
				partial[dim], _ = data.GradAndLoss(cfg.Objective, w, parts[i], partial[:dim])
			})
			allreduce.Average(p, ex, ctx.Cluster.Execs, i, fmt.Sprintf("lbg%d", it), partial)
		}

		// Replicated optimizer math: every executor pays for it; replica 0
		// performs it.
		ex.ChargeKind(p, twoLoopWorkFactor*float64(st.Pairs()+1)*float64(dim), obs.PhaseUpdate, "two-loop")
		if i == 0 {
			copy(g, partial[:dim])
			vec.Scale(g, float64(k)/float64(total)) // mean of partials -> sum/total
			regGradient(cfg.Objective, w, g)
			f = partial[dim]*float64(k)/float64(total) + cfg.Objective.Reg.Value(w)
			st.Update(w, g)
			shared.stop = math.Sqrt(vec.Norm2Sq(g)) < gradTolerance
			if !shared.stop {
				shared.dir = st.Direction(g)
				shared.gd = dot(g, shared.dir)
				if shared.gd >= 0 {
					st.pairs = st.pairs[:0]
					shared.dir = st.Direction(g)
					shared.gd = dot(g, shared.dir)
				}
			}
		}
		bar.Arrive(p)
		if shared.stop {
			if i == 0 {
				done = true
			}
			return
		}
		// Line search: each trial is a local loss pass plus a scalar
		// AllReduce so all replicas observe the same total.
		step := cfg.Opts.InitialStep
		for ls := 0; ls < cfg.Opts.MaxLineSearch; ls++ {
			if i == 0 {
				copy(shared.trial, w)
				vec.AddScaled(shared.trial, shared.dir, step)
				shared.accept = false
			}
			bar.Arrive(p) // trial visible to all replicas
			lossVec := losses[i : i+1]
			ex.ChargeAsync(p, float64(parts[i].NNZ()), func() {
				lossVec[0] = data.LossSum(cfg.Objective, shared.trial, parts[i])
			})
			allreduce.Sum(p, ex, ctx.Cluster.Execs, i, fmt.Sprintf("ls%d.%d", it, ls), lossVec)
			if i == 0 {
				fNew := lossVec[0]/float64(total) + cfg.Objective.Reg.Value(shared.trial)
				if fNew <= f+cfg.Opts.ArmijoC*step*shared.gd {
					shared.accept = true
					copy(w, shared.trial)
					f = fNew
				}
				step /= 2
			}
			bar.Arrive(p) // decision visible to all replicas
			if shared.accept {
				return
			}
		}
		if i == 0 {
			done = true // line search exhausted
		}
	}

	ctx.Cluster.Sim.Spawn("driver:lbfgsstar", func(p *des.Proc) {
		ev.Record(0, p.Now(), w)
		for it := 1; it <= cfg.MaxIters && !done; it++ {
			sink := ctx.Cluster.Net.Sink()
			sink.SetStep(it, p.Now())
			name := fmt.Sprintf("lbfgs-it%d", it)
			bar := des.NewBarrier(ctx.Cluster.Sim, name, k)
			bar.Observe(func(w *des.Proc, gen int, arrive, release float64) {
				sink.CausalBarrier(name, gen, w, arrive, release)
			})
			tasks := make([]engine.Task, k)
			for i := 0; i < k; i++ {
				i := i
				tasks[i] = engine.Task{
					Exec: ctx.Cluster.Execs[i],
					Run: func(p *des.Proc, ex *engine.Executor) (any, float64) {
						iteration(p, ex, i, it, bar)
						return nil, 0
					},
				}
			}
			ctx.RunStage(p, fmt.Sprintf("lbfgsstar-%d", it), tasks)
			if done {
				break
			}
			res.CommSteps = it
			res.Updates++
			ctx.Cluster.Net.Sink().Updates(it, "", 1, p.Now())
			if ev.Record(it, p.Now(), w) {
				break
			}
			if cfg.MaxSimTime > 0 && p.Now() >= cfg.MaxSimTime {
				break
			}
		}
		res.FinalW = vec.Copy(w)
	})
}
