package bench

import (
	"fmt"

	"mllibstar/internal/clusters"
	"mllibstar/internal/data"
	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/glm"
	"mllibstar/internal/obs"
	"mllibstar/internal/opt"
)

func init() {
	register(Experiment{
		ID:    "ablation-summation",
		Title: "Model summation (Petuum) vs model averaging (Petuum*): stability",
		Run:   runAblationSummation,
	})
	register(Experiment{
		ID:    "ablation-lazyl2",
		Title: "Lazy (Bottou) vs eager L2 updates: work per local pass (kddb)",
		Run:   runAblationLazyL2,
	})
	register(Experiment{
		ID:    "ablation-waves",
		Title: "Tasks per executor (waves): 1 vs 2 vs 4 on kdd12",
		Run:   runAblationWaves,
	})
	register(Experiment{
		ID:    "ablation-aggregators",
		Title: "treeAggregate fan-in: flat vs sqrt(k) vs 1 aggregator (MLlib on kdd12)",
		Run:   runAblationAggregators,
	})
}

// runAblationSummation contrasts the two aggregation rules at increasing
// learning rates: summation wins slightly at small rates but diverges at
// large ones, averaging stays stable (Zhang & Jordan [15]).
func runAblationSummation(cfg RunConfig) (*Report, error) {
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ablation-summation", Title: "Model summation vs averaging"}
	spec := clusters.Cluster1(8)
	csv := "eta,petuum_star_final,petuum_final\n"
	for _, eta := range []float64{0.05, 0.2, 0.8} {
		finals := map[string]float64{}
		for _, system := range []string{sysPetuumStar, sysPetuum} {
			prm := tuned(system, w.ds.Name, 0)
			prm.Eta = eta
			prm.Decay = false
			prm.MaxSteps = 60
			prm.EvalEvery = 10
			res, err := runSystem(system, spec, w, prm, obs.Active())
			if err != nil {
				return nil, err
			}
			finals[system] = res.Curve.Final().Objective
		}
		r.addLine("eta=%-5.2f  Petuum* final %.4f   Petuum (summation) final %.4f",
			eta, finals[sysPetuumStar], finals[sysPetuum])
		csv += fmt.Sprintf("%g,%.6f,%.6f\n", eta, finals[sysPetuumStar], finals[sysPetuum])
	}
	r.addLine("Expected shape: summation's final objective blows up as eta grows; averaging stays stable.")
	r.addFile("ablation_summation.csv", csv)
	return r, nil
}

// runAblationLazyL2 measures the work (in nonzeros-touched units) of one
// pass of per-example L2 SGD with the lazy representation vs the eager
// dense update, on the high-dimensional kddb preset.
func runAblationLazyL2(cfg RunConfig) (*Report, error) {
	w, err := loadWorkload("kddb", cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ablation-lazyl2", Title: "Lazy vs eager L2 update cost"}
	obj := glm.SVM(0.1)
	dim := w.ds.Features
	sample := w.ds.Subsample(2000, 5).Examples

	lazyWork := 0
	wLazy := make([]float64, dim)
	lazyWork += opt.LocalPass(obj, wLazy, sample, opt.Const(0.1), 0)

	eagerWork := 0
	wEager := make([]float64, dim)
	for _, e := range sample {
		eagerWork += opt.EagerSGDStep(obj, wEager, e, 0.1)
	}

	// Both paths compute the same model, at very different cost.
	maxDiff := 0.0
	for j := range wLazy {
		if d := wLazy[j] - wEager[j]; d > maxDiff || -d > maxDiff {
			maxDiff = d
			if maxDiff < 0 {
				maxDiff = -maxDiff
			}
		}
	}
	r.addLine("model dim %d, %d examples", dim, len(sample))
	r.addLine("lazy  work: %12d units", lazyWork)
	r.addLine("eager work: %12d units (%.0fx the lazy cost)", eagerWork, float64(eagerWork)/float64(lazyWork))
	r.addLine("max |w_lazy - w_eager| = %.2e (same semantics)", maxDiff)
	r.addFile("ablation_lazyl2.csv",
		fmt.Sprintf("variant,work_units\nlazy,%d\neager,%d\n", lazyWork, eagerWork))
	return r, nil
}

// runAblationWaves reproduces the paper's footnote: assigning multiple
// tasks per executor (waves) increases per-iteration time because of the
// per-task communication overhead, so one task per executor is optimal.
func runAblationWaves(cfg RunConfig) (*Report, error) {
	w, err := loadWorkload("kdd12", cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ablation-waves", Title: "Tasks per executor (waves)"}
	const k = 8
	dim := w.ds.Features
	obj := glm.SVM(0)
	csv := "waves,stage_time_s\n"
	for _, waves := range []int{1, 2, 4} {
		parts := w.ds.Partition(k*waves, 3)
		spec := clusters.Cluster1(k)
		_, cl, ctx := spec.Build(obs.Active())
		var stageTime float64
		cl.Sim.Spawn("driver", func(p *des.Proc) {
			wModel := make([]float64, dim)
			tasks := make([]engine.Task, k*waves)
			for i := range tasks {
				i := i
				tasks[i] = engine.Task{
					Exec:         cl.Execs[i%k],
					PayloadBytes: float64(dim) * engine.FloatBytes,
					Run: func(p *des.Proc, ex *engine.Executor) (any, float64) {
						g := make([]float64, dim)
						work := data.AddGradient(obj, wModel, parts[i], g)
						ex.Charge(p, float64(work))
						return nil, float64(dim) * engine.FloatBytes
					},
				}
			}
			start := p.Now()
			ctx.RunStage(p, "grad", tasks)
			stageTime = p.Now() - start
		})
		cl.Sim.Run()
		r.addLine("%d wave(s): stage time %.4f s", waves, stageTime)
		csv += fmt.Sprintf("%d,%.6f\n", waves, stageTime)
	}
	r.addLine("Expected shape: stage time grows with waves — one task per executor is optimal.")
	r.addFile("ablation_waves.csv", csv)
	return r, nil
}

// runAblationAggregators sweeps MLlib's treeAggregate fan-in on a
// model-heavy workload, showing why the hierarchical scheme exists (flat
// overloads the driver) and why it is still worse than AllReduce.
func runAblationAggregators(cfg RunConfig) (*Report, error) {
	// The hierarchy only pays off once k·m stresses the driver link, so
	// this ablation uses a 5x larger replica than the other experiments.
	bigger := cfg
	bigger.Scale = cfg.scale() / 5
	w, err := loadWorkload("kdd12", bigger)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ablation-aggregators", Title: "treeAggregate fan-in sweep (MLlib)"}
	csv := "aggregators,time_per_step_s\n"
	for _, aggs := range []int{8, 3, 1} {
		prm := tuned(sysMLlib, w.ds.Name, 0)
		prm.MaxSteps = 4
		prm.Aggregators = aggs
		res, err := runSystem(sysMLlib, clusters.Cluster1(8), w, prm, obs.Active())
		if err != nil {
			return nil, err
		}
		perStep := res.SimTime / float64(res.CommSteps)
		label := fmt.Sprintf("%d aggregators", aggs)
		if aggs == 8 {
			label = "flat (8 aggregators = direct to driver)"
		}
		r.addLine("%-42s %.4f s/step", label, perStep)
		csv += fmt.Sprintf("%d,%.6f\n", aggs, perStep)
	}
	// Reference: MLlib* per-step time on the same workload.
	prm := tuned(sysMLlibStar, w.ds.Name, 0)
	prm.MaxSteps = 4
	res, err := runSystem(sysMLlibStar, clusters.Cluster1(8), w, prm, obs.Active())
	if err != nil {
		return nil, err
	}
	r.addLine("%-42s %.4f s/step", "MLlib* (AllReduce, reference)", res.SimTime/float64(res.CommSteps))
	r.addLine("Reading: the hierarchy halves the driver's *receive* load (see the engine tests) but the")
	r.addLine("per-step time barely moves because the model broadcast still serializes through the")
	r.addLine("driver's outbound link — B2 survives treeAggregate; only AllReduce removes the driver,")
	r.addLine("which is exactly the paper's argument for Algorithm 3.")
	r.addFile("ablation_aggregators.csv", csv)
	return r, nil
}
