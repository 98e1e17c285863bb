package bench

import (
	"fmt"

	"mllibstar/internal/angel"
	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/obs"
	"mllibstar/internal/petuum"
	"mllibstar/internal/train"
)

// Systems understood by runSystem, in the paper's naming.
const (
	sysMLlib      = core.MLlib
	sysMAvg       = core.MLlibMA
	sysMLlibStar  = core.MLlibStar
	sysPetuum     = "Petuum"
	sysPetuumStar = "Petuum*"
	sysAngel      = "Angel"
)

// runSystem executes one training run of the named system on a fresh
// simulated cluster built from spec, recording into sink (nil records
// nothing).
func runSystem(system string, spec clusters.Spec, w *workload, prm train.Params, sink *obs.Sink) (*train.Result, error) {
	parts := w.ds.Partition(spec.Executors, 3)
	dim := w.ds.Features
	if _, spark := core.AggregationOf(system); spark {
		_, _, ctx := spec.Build(sink)
		return core.Train(system, ctx, parts, dim, prm, w.eval, w.ds.Name)
	}
	switch system {
	case sysPetuum, sysPetuumStar:
		sim, net, names := spec.BuildNet(sink)
		return petuum.Train(sim, net, names, parts, dim, prm, w.eval, w.ds.Name, system == sysPetuum)
	case sysAngel:
		sim, net, names := spec.BuildNet(sink)
		return angel.Train(sim, net, names, parts, dim, prm, w.eval, w.ds.Name)
	}
	return nil, fmt.Errorf("bench: unknown system %q", system)
}

// runTuned runs a system with its tuned (or grid-searched) hyperparameters,
// bounded by the given step/time budget and stopping at the workload's
// 0.01-accuracy-loss target.
func runTuned(system string, spec clusters.Spec, w *workload, l2 float64,
	maxSteps int, maxSimTime float64, cfg RunConfig) (*train.Result, error) {

	prm := tuned(system, w.ds.Name, l2)
	prm.MaxSteps = maxSteps
	prm.MaxSimTime = maxSimTime
	prm.TargetObjective = w.target(l2)
	if maxSteps > 1000 {
		// Keep long baseline runs cheap to evaluate without losing much
		// resolution on steps-to-target.
		prm.EvalEvery = 10
	}
	if cfg.Grid {
		searchSteps := maxSteps / 4
		if searchSteps < 5 {
			searchSteps = 5
		}
		eta, err := gridSearch(func(eta float64) (float64, error) {
			p := prm
			p.Eta = eta
			p.MaxSteps = searchSteps
			p.TargetObjective = 0
			res, err := runSystem(system, spec, w, p, cfg.Sink)
			if err != nil {
				return 0, err
			}
			return res.Curve.Best(), nil
		})
		if err != nil {
			return nil, err
		}
		prm.Eta = eta
	}
	return runSystem(system, spec, w, prm, cfg.Sink)
}

// stepBudget returns the communication-step budget for a system: the
// SendGradient baseline and per-batch systems need far more steps than the
// per-epoch systems to have a fair chance at the target.
func stepBudget(system string) int {
	switch system {
	case sysMLlib:
		return 6000
	case sysPetuum, sysPetuumStar:
		return 3000
	case sysAngel:
		return 250
	default:
		return 150
	}
}
