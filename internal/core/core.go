// Package core holds every Spark-side trainer, laid out as the paper's 2×2:
// an update pattern crossed with an aggregation path, each axis removing one
// bottleneck.
//
//   - Update pattern. SendGradient (MLlib's mini-batch gradient descent,
//     Algorithm 2) has every executor return a sampled mini batch's gradient
//     sum and applies one model update per communication step at the driver:
//     bottleneck B1. SendModel has every executor refine a model with
//     per-example SGD over its whole partition (Bottou's lazily scaled update
//     under L2) and averages the models, which removes B1.
//   - Aggregation path. Tree is MLlib's treeAggregate: the driver ships the
//     model with the task descriptors and the results fold through
//     intermediate executors into the driver, which serialises all model
//     traffic: bottleneck B2. AllReduce is the driverless Reduce-Scatter +
//     AllGather of two shuffle rounds (Algorithm 3): executors keep
//     persistent local models and the driver only schedules, which removes
//     B2.
//
// MLlib is SendGradient over Tree, MLlib+MA SendModel over Tree and MLlib*
// SendModel over AllReduce; the fourth cell has no system. MLlib*-SVRG runs
// variance-reduced inner epochs over AllReduce, and spark.ml's full-batch
// L-BFGS runs over either path (LBFGS, LBFGS*). Each system is one row of the
// system table, and Train runs them all through one driver loop.
package core

import (
	"fmt"
	"math"

	"mllibstar/internal/data"
	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/glm"
	"mllibstar/internal/obs"
	"mllibstar/internal/train"
	"mllibstar/internal/vec"
)

// Aggregation is how a communication step combines the executors' results.
type Aggregation int

const (
	// Tree is MLlib's treeAggregate into the driver, through
	// train.Params.Aggregators intermediate executors (default ⌈√k⌉).
	Tree Aggregation = iota
	// AllReduce is the Reduce-Scatter/AllGather plan of internal/allreduce.
	AllReduce
)

// The systems of the table, by curve label.
const (
	MLlib         = "MLlib"
	MLlibMA       = "MLlib+MA"
	MLlibStar     = "MLlib*"
	MLlibStarSVRG = "MLlib*-SVRG"
	LBFGS         = "LBFGS"
	LBFGSStar     = "LBFGS*"
)

// system is one row of the system table.
type system struct {
	name  string
	agg   Aggregation
	proc  string // the driver process
	stage string // the step's stage tag, with one %d for the step
	note  string // the note of the model-update charge
	// smooth marks the optimizers that need a differentiable loss.
	smooth bool
	// eta marks the systems whose updates read the step size
	// (train.Params.Eta, Decay); L-BFGS's line search picks its own.
	eta bool
	// steps builds the system's trainer for one run.
	steps func(*run) trainer
}

var systems = []system{
	{MLlib, Tree, "driver:mllib", "mgd%d", "model update", false, true, sendGradient},
	{MLlibMA, Tree, "driver:mavg", "ma%d", "model averaging", false, true, sendModel},
	{MLlibStar, AllReduce, "driver:mllibstar", "mllibstar-%d", "", false, true, sendModel},
	{MLlibStarSVRG, AllReduce, "driver:mllibstar-svrg", "svrg-%d", "", true, true, svrg},
	{LBFGS, Tree, "driver:lbfgs", "lb%d", "two-loop", true, false, fullBatchLBFGS},
	{LBFGSStar, AllReduce, "driver:lbfgsstar", "lbfgsstar-%d", "two-loop", true, false, fullBatchLBFGS},
}

// lookup returns the named system's row, nil when the table has none.
func lookup(name string) *system {
	for i := range systems {
		if systems[i].name == name {
			return &systems[i]
		}
	}
	return nil
}

// AggregationOf reports the aggregation path of the named system, and
// whether the table has the system at all.
func AggregationOf(name string) (Aggregation, bool) {
	if s := lookup(name); s != nil {
		return s.agg, true
	}
	return 0, false
}

// ReadsEta reports whether the named system's updates read the step size,
// train.Params.Eta; false for L-BFGS, whose line search picks the step, and
// for a name the table does not have.
func ReadsEta(name string) bool {
	s := lookup(name)
	return s != nil && s.eta
}

// run is one training run: what the driver loop and a system's steps share.
type run struct {
	system
	ctx    *engine.Context
	parts  []data.View
	dim, k int
	total  int // training rows over all partitions
	aggs   int // the Tree fan-in
	prm    train.Params
	res    *train.Result
}

// trainer is what a system hands the driver loop.
type trainer struct {
	// model is the model the curve records and the run returns.
	model []float64
	// start, if set, runs once after the step-0 point is recorded.
	start func(p *des.Proc)
	// step runs communication step t and reports whether the run goes on;
	// false ends it without recording the step.
	step func(p *des.Proc, t int) bool
}

// Train runs the named system on the cluster behind ctx. parts must hold one
// partition per executor, in executor order; evalData is the out-of-band
// evaluation set and dataset labels the curve.
func Train(name string, ctx *engine.Context, parts []data.View, dim int, prm train.Params,
	evalData data.View, dataset string) (*train.Result, error) {

	s := lookup(name)
	if s == nil {
		return nil, fmt.Errorf("core: unknown system %q", name)
	}
	validate := prm.Validate
	if !s.eta {
		validate = prm.ValidateIgnoringEta
	}
	if err := validate(); err != nil {
		return nil, err
	}
	if _, hinge := prm.Objective.Loss.(glm.Hinge); hinge && s.smooth {
		return nil, fmt.Errorf("core: %s needs a differentiable loss; use logistic or squared", name)
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

	net := ctx.Cluster.Net
	ev := train.NewEvaluatorInto(net.Sink(), name, dataset, prm.Objective, evalData, prm.EvalEvery)
	ev.StopAt(prm.TargetObjective)
	r := &run{
		system: *s, ctx: ctx, parts: parts, dim: dim, k: k, total: total,
		aggs: aggregators(prm, k), prm: prm, res: &train.Result{System: name, Curve: ev.Curve},
	}
	tr := s.steps(r)
	ctx.Cluster.Sim.Spawn(s.proc, func(p *des.Proc) {
		ev.Record(0, p.Now(), tr.model)
		if tr.start != nil {
			tr.start(p)
		}
		for t := 1; t <= prm.MaxSteps; t++ {
			net.Sink().SetStep(t, p.Now())
			if !tr.step(p, t) {
				break
			}
			r.res.CommSteps = t
			if ev.Record(t, p.Now(), tr.model) || prm.MaxSimTime > 0 && p.Now() >= prm.MaxSimTime {
				break
			}
		}
	})
	r.res.SimTime = ctx.Cluster.Sim.Run()
	ev.Wait()
	r.res.FinalW = vec.Copy(tr.model)
	r.res.TotalBytes = net.TotalBytes()
	return r.res, nil
}

// aggregators resolves the treeAggregate fan-in: the explicit value if set,
// otherwise ⌈√k⌉ — the branching of MLlib's default depth-2 tree.
func aggregators(prm train.Params, k int) int {
	if prm.Aggregators > 0 {
		return prm.Aggregators
	}
	return max(1, int(math.Ceil(math.Sqrt(float64(k)))))
}

// tag is the stage tag of step t.
func (r *run) tag(t int) string { return fmt.Sprintf(r.stage, t) }

// replicas allocates the executors' persistent local models, which live on
// the executors across steps and are never broadcast, and ref: the snapshot
// of the synchronized model taken at the top of each step, against which the
// step's AllReduce delta-encodes when sparse exchange is on. Every local
// equals it bitwise then, so the snapshot is simulation bookkeeping, not a
// modeled computation, and is not charged.
func (r *run) replicas() (locals [][]float64, ref []float64) {
	locals = make([][]float64, r.k)
	for i := range locals {
		locals[i] = make([]float64, r.dim)
	}
	return locals, make([]float64, r.dim)
}

// allReduceStage runs step t as one stage with a task per executor: run is
// task i's body on executor i, and pure, if set, its offloaded closure
// (engine.Task.Pure), returning the work to charge.
func (r *run) allReduceStage(p *des.Proc, t int, pure func(i int) float64, run func(p *des.Proc, ex *engine.Executor, i int)) {
	tasks := make([]engine.Task, r.k)
	for i := range tasks {
		tasks[i] = engine.Task{
			Exec: r.ctx.Cluster.Execs[i],
			Run: func(p *des.Proc, ex *engine.Executor) (any, float64) {
				run(p, ex, i)
				return nil, 0
			},
		}
		if pure != nil {
			tasks[i].Pure = func() float64 { return pure(i) }
		}
	}
	r.ctx.RunStage(p, r.tag(t), tasks)
}

// driverUpdate charges the model update at the driver.
func (r *run) driverUpdate(p *des.Proc, work float64) {
	r.ctx.Cluster.Net.Node(r.ctx.Cluster.Driver).ComputeKind(p, work, obs.PhaseUpdate, r.note)
}

// updated books n model updates of step t, applied at node ("" for every
// executor).
func (r *run) updated(p *des.Proc, t int, node string, n int64) {
	r.res.Updates += n
	r.ctx.Cluster.Net.Sink().Updates(t, node, n, p.Now())
}
