// Package train defines the configuration and result types shared by every
// distributed GLM trainer in this repository (MLlib baseline, MLlib+MA,
// MLlib*, Petuum, Petuum*, Angel), plus the out-of-band evaluator that
// records convergence curves.
//
// Evaluation is instrumentation: computing f(w, X) between communication
// steps does not consume simulated time, mirroring how the paper's plots
// track the objective without perturbing the measured run.
package train

import (
	"fmt"
	"math"

	"mllibstar/internal/glm"
	"mllibstar/internal/metrics"
	"mllibstar/internal/obs"
	"mllibstar/internal/opt"
	"mllibstar/internal/par"
)

// Params configures a distributed training run.
type Params struct {
	Objective glm.Objective
	Eta       float64 // base learning rate
	Decay     bool    // use eta/sqrt(t) decay instead of a constant rate

	// BatchFraction is the mini-batch size as a fraction of the full
	// dataset, for the SendGradient paradigm (MLlib) and the per-batch
	// systems (Petuum, Angel). MLlib* passes the whole partition per step.
	BatchFraction float64

	// MaxSteps bounds the number of communication steps.
	MaxSteps int
	// MaxSimTime bounds the simulated seconds (0 = unbounded).
	MaxSimTime float64
	// TargetObjective stops the run early once reached (0 = disabled).
	TargetObjective float64

	// LocalPasses is how many passes over its local partition each worker
	// makes per communication step in the SendModel paradigm (default 1).
	LocalPasses int

	// AdaGrad switches the SendModel local optimizer from SGD to AdaGrad
	// (per-coordinate adaptive step sizes, persistent accumulators per
	// worker across communication steps).
	AdaGrad bool

	// Reweight enables Splash-style [Zhang & Jordan, 15] reweighted model
	// averaging in MLlib*: each worker takes its local steps with the step
	// size scaled by the number of workers — as if its partition were the
	// whole dataset — before the models are averaged, which keeps the
	// expected update unbiased while averaging reduces its variance.
	Reweight bool

	// Aggregators is the fan-in of MLlib's treeAggregate: how many executors
	// act as intermediate aggregators (0 = ceil(sqrt(k)), MLlib's depth-2
	// default; k = flat aggregation at the driver).
	Aggregators int

	// TorrentBroadcast distributes the model with Spark's TorrentBroadcast
	// (driver ships one chunk per executor, executors exchange chunks)
	// instead of shipping the full model with every task descriptor.
	TorrentBroadcast bool

	// EvalEvery records the objective every EvalEvery communication steps
	// (default 1).
	EvalEvery int

	// Staleness is the SSP slack for parameter-server systems (0 = BSP).
	Staleness int

	// ComputeJitter adds transient per-step compute noise to
	// parameter-server workers: each step's work is inflated by a uniform
	// factor in [1, 1+ComputeJitter], sampled deterministically per
	// (worker, step). It models the short-lived stragglers that SSP's
	// bounded staleness exists to hide.
	ComputeJitter float64

	Seed int64
}

// Validate fills defaults and rejects nonsensical parameters, naming the
// field. NaN and ±Inf are rejected everywhere: a NaN fails every ordered
// comparison, so it would pass a plain range test.
func (p *Params) Validate() error {
	if p.Objective.Loss == nil || p.Objective.Reg == nil {
		return fmt.Errorf("train: objective not fully specified")
	}
	if !(p.Eta > 0) || math.IsInf(p.Eta, 0) {
		return fmt.Errorf("train: Eta %g must be finite and positive", p.Eta)
	}
	if p.MaxSteps <= 0 {
		return fmt.Errorf("train: MaxSteps %d must be positive", p.MaxSteps)
	}
	if !(p.BatchFraction >= 0 && p.BatchFraction <= 1) {
		return fmt.Errorf("train: BatchFraction %g out of [0,1]", p.BatchFraction)
	}
	if err := CheckStop(p.TargetObjective, p.MaxSimTime, p.EvalEvery); err != nil {
		return fmt.Errorf("train: %w", err)
	}
	if p.LocalPasses < 0 {
		return fmt.Errorf("train: LocalPasses %d must be >= 0", p.LocalPasses)
	}
	if p.EvalEvery == 0 {
		p.EvalEvery = 1
	}
	if p.LocalPasses == 0 {
		p.LocalPasses = 1
	}
	if p.Staleness < 0 {
		return fmt.Errorf("train: staleness %d must be >= 0", p.Staleness)
	}
	if p.Aggregators < 0 {
		return fmt.Errorf("train: aggregators %d must be >= 0", p.Aggregators)
	}
	return nil
}

// CheckStop rejects non-finite or negative stop criteria and a negative
// evaluation cadence, naming the field; zero means "disabled" (or, for the
// cadence, "default"). lbfgs.DistConfig carries the same three fields and
// shares the check.
func CheckStop(targetObjective, maxSimTime float64, evalEvery int) error {
	for _, f := range []struct {
		field string
		v     float64
	}{
		{"TargetObjective", targetObjective},
		{"MaxSimTime", maxSimTime},
		{"EvalEvery", float64(evalEvery)},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s %g must be finite and >= 0", f.field, f.v)
		}
	}
	return nil
}

// Schedule returns the learning-rate schedule implied by the params.
func (p *Params) Schedule() opt.Schedule {
	if p.Decay {
		return opt.InvSqrt(p.Eta)
	}
	return opt.Const(p.Eta)
}

// Result captures the outcome of a distributed training run.
type Result struct {
	System     string
	Curve      *metrics.Curve
	FinalW     []float64
	SimTime    float64 // total simulated seconds
	CommSteps  int     // communication steps executed
	TotalBytes float64 // payload bytes moved over the network
	Updates    int64   // total model updates applied (local or global)
}

// Evaluator records convergence points against a fixed evaluation set, off
// the simulation thread: Record snapshots the model and submits the
// objective evaluation to the offload pool (par.Go), and the next Record —
// or Wait — joins it and commits the value. At most one evaluation is in
// flight, so points and telemetry Eval events are committed in step order.
//
// Nothing reads a value at the step that produced it unless the run has a
// stop target or a telemetry sink (whose event order is pinned); Record sees
// both and then joins the evaluation it just submitted, so such runs
// evaluate inline, exactly where they always did. Everybody else — the
// trainer after sim.Run(), any reader of Curve or Reached — calls Wait
// first: until then the last point's Objective is a NaN placeholder.
type Evaluator struct {
	Objective glm.Objective
	Data      []glm.Example
	// Curve holds one point per recorded step as soon as Record returns;
	// the last point's Objective is final only after Wait.
	Curve *metrics.Curve
	every int
	// Staleness is the run's SSP slack, attached to the telemetry eval
	// events; the parameter-server trainers set it from their params.
	Staleness int

	target  float64     // StopAt; 0 = no early stop
	reached bool        // the last committed objective met the target
	snap    []float64   // the model a deferred evaluation reads; written only between Wait and par.Go
	pending *par.Handle // the evaluation in flight, nil when none
}

// NewEvaluator builds an evaluator recording to a fresh curve. When
// telemetry is enabled the run's system and dataset names are logged as
// meta events, which is how cmd/mlstar-obs labels its reports.
func NewEvaluator(system, dataset string, obj glm.Objective, evalData []glm.Example, every int) *Evaluator {
	if every <= 0 {
		every = 1
	}
	obs.Active().Meta("system", system)
	obs.Active().Meta("dataset", dataset)
	return &Evaluator{
		Objective: obj,
		Data:      evalData,
		Curve:     metrics.NewCurve(system, dataset),
		every:     every,
	}
}

// StopAt sets the objective at or below which Record reports the run as
// done (0 = never). Call it before the run starts.
func (ev *Evaluator) StopAt(target float64) { ev.target = target }

// Due reports whether step is on the evaluation cadence (step 0 and every
// `every` steps), i.e. whether Record(step, …) records a point.
func (ev *Evaluator) Due(step int) bool { return step%ev.every == 0 }

// Record appends a point for w if step is on the evaluation cadence and
// starts its evaluation; it reports whether the stop target has been
// reached. The caller may overwrite w as soon as Record returns — the
// evaluation reads the evaluator's own copy — and Curve.Len() already
// counts the point. Like the curve itself, the evaluation consumes no
// simulated time. Record must be called from the simulation thread, with
// non-decreasing steps.
func (ev *Evaluator) Record(step int, simTime float64, w []float64) (reached bool) {
	if !ev.Due(step) {
		return false
	}
	ev.Wait()
	// The value is read at this step only by a stop test or by a telemetry
	// sink (whose event order is pinned); then the evaluation is joined
	// before Record returns and can read w itself. Otherwise the trainer
	// moves on, so the evaluation gets the evaluator's own copy.
	inline := ev.target > 0 || obs.Active() != nil
	model := w
	if !inline {
		ev.snap = append(ev.snap[:0], w...)
		model = ev.snap
	}
	ev.Curve.Add(step, simTime, math.NaN())
	obj, data := ev.Objective, ev.Data
	ev.pending = par.Go(func() float64 { return obj.Value(model, data) })
	if inline {
		ev.Wait()
	}
	return ev.reached
}

// Wait joins the evaluation in flight, if any, and commits it: the
// objective goes into its point and the telemetry Eval event is emitted —
// here, on the simulation thread, not from the pool. A panic of the loss is
// re-raised. Wait is idempotent; every trainer calls it once after
// sim.Run().
func (ev *Evaluator) Wait() {
	h := ev.pending
	if h == nil {
		return
	}
	ev.pending = nil
	obj := h.Join()
	pt := &ev.Curve.Points[len(ev.Curve.Points)-1]
	pt.Objective = obj
	ev.reached = ev.target > 0 && obj <= ev.target
	obs.Active().Eval(pt.Step, "", pt.Time, obj, ev.Staleness)
}

// Reached joins the evaluation in flight and reports whether the last
// recorded objective met the stop target (no target means never).
func (ev *Evaluator) Reached() bool {
	ev.Wait()
	return ev.reached
}
