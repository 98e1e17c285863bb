package bench

import (
	"fmt"

	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/glm"
	"mllibstar/internal/lbfgs"
	"mllibstar/internal/obs"
	"mllibstar/internal/opt"
	"mllibstar/internal/train"
)

func init() {
	register(Experiment{
		ID:    "ext-lbfgs",
		Title: "Extension (paper §VII): do the MLlib* techniques transfer to spark.ml's L-BFGS?",
		Run:   runExtLBFGS,
	})
	register(Experiment{
		ID:    "ext-staleness",
		Title: "Extension: SSP staleness sweep for Petuum* on a heterogeneous cluster",
		Run:   runExtStaleness,
	})
	register(Experiment{
		ID:    "ext-adagrad",
		Title: "Extension: AdaGrad as MLlib*'s local optimizer on skewed sparse features",
		Run:   runExtAdaGrad,
	})
	register(Experiment{
		ID:    "ext-svrg",
		Title: "Extension: variance-reduced SVRG on the MLlib* architecture",
		Run:   runExtSVRG,
	})
	register(Experiment{
		ID:    "ext-reweight",
		Title: "Extension (paper §IV-B remark): Splash-style reweighted model averaging",
		Run:   runExtReweight,
	})
}

// runExtLBFGS answers the conclusion's open question: replacing the
// driver-centric gradient aggregation of spark.ml's L-BFGS with AllReduce
// yields the same iterates at a lower per-iteration latency — the B2 fix
// transfers to second-order optimization unchanged.
func runExtLBFGS(cfg RunConfig) (*Report, error) {
	w, err := loadWorkload("kdd12", cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ext-lbfgs", Title: "L-BFGS: treeAggregate (spark.ml) vs AllReduce"}
	obj := glm.LogReg(0.01)
	csv := "variant,iterations,sim_time_s,time_per_iter_s,final_objective,driver_bytes\n"
	for _, allReduce := range []bool{false, true} {
		_, cl, ctx := clusters.Cluster1(8).Build(obs.Active())
		parts := w.ds.Partition(8, 3)
		res, err := lbfgs.TrainDistributed(ctx, parts, w.ds.Features, lbfgs.DistConfig{
			Objective: obj,
			MaxIters:  25,
			AllReduce: allReduce,
		}, w.eval, w.ds.Name)
		if err != nil {
			return nil, err
		}
		driverBytes := cl.Net.Node("driver").BytesSent() + cl.Net.Node("driver").BytesRecv()
		perIter := res.SimTime / float64(res.CommSteps)
		r.addLine("%-7s %3d iters, %8.4f s (%.5f s/iter), final objective %.4f, driver traffic %.1f MB",
			res.System, res.CommSteps, res.SimTime, perIter,
			res.Curve.Final().Objective, driverBytes/1e6)
		r.addMetric(safe(res.System)+"_time_per_iter", perIter)
		csv += fmt.Sprintf("%s,%d,%.6f,%.6f,%.6f,%.0f\n",
			res.System, res.CommSteps, res.SimTime, perIter, res.Curve.Final().Objective, driverBytes)
	}
	r.addLine("Expected shape: identical iterates (same final objective), AllReduce variant faster per iteration.")
	r.addFile("ext_lbfgs.csv", csv)
	return r, nil
}

// runExtStaleness sweeps the SSP staleness of Petuum* on a cluster with
// heterogeneous worker speeds: bounded staleness hides stragglers (faster
// steps) at a modest convergence cost — the tradeoff SSP [13] exists for.
func runExtStaleness(cfg RunConfig) (*Report, error) {
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ext-staleness", Title: "SSP staleness sweep (Petuum*, transient stragglers)"}
	spec := clusters.Cluster1(8)
	csv := "staleness,sim_time_s,time_per_step_s,best_objective\n"
	for _, staleness := range []int{0, 1, 4, 16} {
		prm := tuned(sysPetuumStar, w.ds.Name, 0)
		prm.Staleness = staleness
		prm.MaxSteps = 200
		prm.EvalEvery = 10
		// Transient stragglers: a step's compute can inflate by up to ~100x
		// (GC pauses, co-tenant interference). BSP pays the max across
		// workers at every barrier; SSP absorbs fluctuations up to its
		// staleness window.
		prm.ComputeJitter = 100
		prm.BatchFraction = 0.25
		res, err := runSystem(sysPetuumStar, spec, w, prm, obs.Active())
		if err != nil {
			return nil, err
		}
		perStep := res.SimTime / float64(res.CommSteps)
		r.addLine("staleness %2d: %8.4f s total, %.6f s/step, best objective %.4f",
			staleness, res.SimTime, perStep, res.Curve.Best())
		r.addMetric(fmt.Sprintf("time_per_step_s%d", staleness), perStep)
		csv += fmt.Sprintf("%d,%.6f,%.6f,%.6f\n", staleness, res.SimTime, perStep, res.Curve.Best())
	}
	r.addLine("Expected shape: time per step falls as staleness grows (transient stragglers overlap")
	r.addLine("within the staleness window instead of stalling every BSP barrier).")
	r.addFile("ext_staleness.csv", csv)
	return r, nil
}

// runExtReweight evaluates the Splash-style [15] reweighted combination the
// paper's §IV-B remark suggests could further improve MLlib*: each worker
// takes its local steps with the step size scaled by k (as if its partition
// were the whole dataset) before averaging. Reweighting is a step-size
// transformation of local SGD, so the honest comparison is best-of-grid for
// each variant at matched budgets — the question being whether the
// k-scaled regime, which matches sequential SGD's per-epoch progress,
// tolerates rates that plain averaging cannot.
func runExtReweight(cfg RunConfig) (*Report, error) {
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ext-reweight", Title: "Model averaging vs Splash-style reweighted averaging (MLlib*)"}
	target := w.target(0)
	r.addLine("target objective (optimum + 0.01): %.4f", target)
	csv := "variant,base_eta,steps_to_target,best_objective\n"
	for _, reweight := range []bool{false, true} {
		name := "plain averaging"
		if reweight {
			name = "reweighted (Splash)"
		}
		bestSteps, bestEta, bestObj := -1, 0.0, 1e18
		for _, eta := range []float64{0.025, 0.05, 0.1, 0.3} {
			prm := tuned(sysMLlibStar, w.ds.Name, 0)
			prm.Eta = eta
			prm.Reweight = reweight
			prm.MaxSteps = 100
			prm.TargetObjective = target
			res, err := runSystem(sysMLlibStar, clusters.Cluster1(8), w, prm, obs.Active())
			if err != nil {
				return nil, err
			}
			steps, ok := res.Curve.StepsToReach(target)
			if obj := res.Curve.Best(); obj < bestObj {
				bestObj = obj
			}
			if ok && (bestSteps < 0 || steps < bestSteps) {
				bestSteps, bestEta = steps, eta
			}
			csv += fmt.Sprintf("%s,%g,%d,%.6f\n", name, eta, steps, res.Curve.Best())
		}
		if bestSteps >= 0 {
			r.addLine("%-20s best of grid: %3d steps to target (base eta %g), best objective %.4f",
				name, bestSteps, bestEta, bestObj)
			r.addMetric(safeName(name)+"_steps", float64(bestSteps))
		} else {
			r.addLine("%-20s did not reach target at any grid rate (best objective %.4f)", name, bestObj)
		}
	}
	r.addLine("Reading: reweighting rescales the local step by k, so the two variants explore the")
	r.addLine("same trajectory family; its practical value is that the *sequential* tuned rate")
	r.addLine("transfers to the distributed run without retuning (here: base 0.025 ~ sequential")
	r.addLine("0.2), rather than a new optimum plain averaging could not reach.")
	r.addFile("ext_reweight.csv", csv)
	return r, nil
}

// safeName is safe() for free-form labels.
func safeName(label string) string {
	out := make([]rune, 0, len(label))
	for _, c := range label {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			out = append(out, c)
		case c == ' ':
			out = append(out, '_')
		}
	}
	return string(out)
}

// runExtAdaGrad compares MLlib*'s local optimizer: plain SGD vs AdaGrad, on
// the Zipf-skewed kddb replica where per-coordinate adaptivity should help
// the rare-feature tail.
func runExtAdaGrad(cfg RunConfig) (*Report, error) {
	w, err := loadWorkload("kddb", cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ext-adagrad", Title: "MLlib* local optimizer: SGD vs AdaGrad (kddb)"}
	target := w.target(0)
	r.addLine("target objective (optimum + 0.01): %.4f", target)
	csv := "optimizer,eta,steps_to_target,best_objective\n"
	for _, adaGrad := range []bool{false, true} {
		name := "SGD"
		etas := []float64{0.1, 0.3}
		if adaGrad {
			name = "AdaGrad"
			etas = []float64{0.1, 0.5}
		}
		bestSteps, bestEta, bestObj := -1, 0.0, 1e18
		for _, eta := range etas {
			prm := tuned(sysMLlibStar, w.ds.Name, 0)
			prm.Eta = eta
			prm.AdaGrad = adaGrad
			prm.MaxSteps = 200
			prm.TargetObjective = target
			res, err := runSystem(sysMLlibStar, clusters.Cluster1(8), w, prm, obs.Active())
			if err != nil {
				return nil, err
			}
			steps, ok := res.Curve.StepsToReach(target)
			if obj := res.Curve.Best(); obj < bestObj {
				bestObj = obj
			}
			if ok && (bestSteps < 0 || steps < bestSteps) {
				bestSteps, bestEta = steps, eta
			}
			csv += fmt.Sprintf("%s,%g,%d,%.6f\n", name, eta, steps, res.Curve.Best())
		}
		if bestSteps >= 0 {
			r.addLine("%-8s best of grid: %4d steps to target (eta %g), best objective %.4f",
				name, bestSteps, bestEta, bestObj)
		} else {
			r.addLine("%-8s did not reach target (best objective %.4f)", name, bestObj)
		}
	}
	r.addFile("ext_adagrad.csv", csv)
	return r, nil
}

// runExtSVRG compares plain local SGD with variance-reduced SVRG on the
// MLlib* architecture: same communication pattern (two collectives per step
// instead of one), corrected inner steps with a constant rate.
func runExtSVRG(cfg RunConfig) (*Report, error) {
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ext-svrg", Title: "MLlib* local optimizer: SGD vs SVRG (logistic, avazu)"}
	obj := glm.LogReg(0.01)
	ref := opt.ReferenceOptimumOn(obj, w.ds.Examples, w.eval, w.ds.Features, 40)
	target := ref + 0.005
	r.addLine("target objective (optimum + 0.005): %.4f", target)
	csv := "variant,steps_to_target,time_to_target_s,best_objective\n"
	parts := w.ds.Partition(8, 3)
	for _, svrg := range []bool{false, true} {
		name := "SGD"
		if svrg {
			name = "SVRG"
		}
		_, _, ctx := clusters.Cluster1(8).Build(obs.Active())
		prm := tuned(sysMLlibStar, w.ds.Name, 0)
		prm.Objective = obj
		prm.Eta = 0.2
		prm.Decay = !svrg // SVRG uses a constant step; SGD needs decay
		prm.MaxSteps = 100
		prm.TargetObjective = target
		var res *train.Result
		if svrg {
			res, err = core.TrainSVRG(ctx, parts, w.ds.Features, prm, w.eval, w.ds.Name)
		} else {
			res, err = core.Train(ctx, parts, w.ds.Features, prm, w.eval, w.ds.Name)
		}
		if err != nil {
			return nil, err
		}
		steps, okS := res.Curve.StepsToReach(target)
		tm, _ := res.Curve.TimeToReach(target)
		if okS {
			r.addLine("%-5s reached target in %3d steps (%.4f s), best %.4f", name, steps, tm, res.Curve.Best())
			csv += fmt.Sprintf("%s,%d,%.6f,%.6f\n", name, steps, tm, res.Curve.Best())
		} else {
			r.addLine("%-5s did not reach target (best %.4f)", name, res.Curve.Best())
			csv += fmt.Sprintf("%s,-1,-1,%.6f\n", name, res.Curve.Best())
		}
	}
	r.addLine("Expected shape: SVRG needs fewer or equal outer steps at a constant rate; each")
	r.addLine("step moves ~2x the bytes (snapshot-gradient AllReduce + model AllReduce).")
	r.addFile("ext_svrg.csv", csv)
	return r, nil
}
