package bench

import (
	"fmt"

	"mllibstar/internal/clusters"
	"mllibstar/internal/metrics"
	"mllibstar/internal/train"
)

// fig6Machines are the cluster sizes of Figure 6 (a)-(c).
var fig6Machines = []int{32, 64, 128}

func init() {
	for i, m := range fig6Machines {
		id := fmt.Sprintf("fig6%c", 'a'+i)
		m := m
		register(Experiment{
			ID:    id,
			Title: fmt.Sprintf("Tencent WX workload with %d machines: MLlib, MLlib*, Angel", m),
			Run: func(cfg RunConfig) (*Report, error) {
				return runFig6Panel(id, m, cfg)
			},
		})
	}
	register(Experiment{
		ID:    "fig6d",
		Title: "Scalability on WX: speedup vs #machines, normalized to 32",
		Run:   runFig6d,
	})
	register(Experiment{
		ID:    "fig6",
		Title: "All WX scalability panels (a-d)",
		Run: func(cfg RunConfig) (*Report, error) {
			combined := &Report{ID: "fig6", Title: "WX scalability, all panels"}
			for i := range fig6Machines {
				sub, err := runFig6Panel(fmt.Sprintf("fig6%c", 'a'+i), fig6Machines[i], cfg)
				if err != nil {
					return nil, err
				}
				combined.Lines = append(combined.Lines, sub.Text())
				combined.addFilesFrom(sub)
			}
			sub, err := runFig6d(cfg)
			if err != nil {
				return nil, err
			}
			combined.Lines = append(combined.Lines, sub.Text())
			combined.addFilesFrom(sub)
			return combined, nil
		},
	})
}

// fig6Systems are the systems of Figure 6 (Petuum could not be deployed on
// Cluster 2 in the paper, so it is absent here too).
var fig6Systems = []string{sysMLlib, sysMLlibStar, sysAngel}

// fig6Run names one run of Figure 6 on a workload: panels a–c and d run
// the same nine.
type fig6Run struct {
	system   string
	machines int
}

// runTuned6 runs a system with the WX experiment's budgets: the common
// target is looser than Figure 4/5's, so the step budgets can be tighter.
// Without a sink a run is kept on its workload, so fig6d reads the runs of
// a–c instead of repeating them; a run that records into a sink is always
// made, so the sink holds every run's events.
func runTuned6(system string, spec clusters.Spec, w *workload, cfg RunConfig) (*train.Result, error) {
	key := fig6Run{system, spec.Executors}
	if res := w.fig6[key]; res != nil && cfg.Sink == nil {
		return res, nil
	}
	prm := tuned(system, w.ds.Name, 0)
	prm.TargetObjective = w.reference(0) + 0.05
	prm.EvalEvery = 2
	switch system {
	case sysMLlib:
		prm.MaxSteps = 2000
		prm.EvalEvery = 10
	case sysAngel:
		prm.MaxSteps = 250
		// The paper tunes an absolute batch size; keep it fixed as machines
		// are added (BatchFraction is relative to the local partition, so it
		// must grow with the cluster). At tiny batches Angel drowns in
		// per-batch allocations, so the grid lands on a moderate size.
		prm.BatchFraction = 0.05 * float64(spec.Executors) / 32
		if prm.BatchFraction > 1 {
			prm.BatchFraction = 1
		}
	default:
		prm.MaxSteps = 100
	}
	res, err := runSystem(system, spec, w, prm, cfg.Sink)
	if err == nil && cfg.Sink == nil {
		w.fig6[key] = res
	}
	return res, err
}

// runFig6Panel runs the WX workload on Cluster 2 with the given machine
// count.
func runFig6Panel(id string, machines int, cfg RunConfig) (*Report, error) {
	w, err := loadWorkload("wx", cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: id, Title: fmt.Sprintf("WX on cluster2 with %d machines", machines)}
	spec := clusters.Cluster2(machines)
	// The paper's dotted line in Figure 6 is the best objective achieved
	// among the systems, not the 0.01-loss bar; a reachable common target
	// keeps all three systems measurable.
	target := w.reference(0) + 0.05
	r.addLine("common target objective (optimum + 0.05): %.4f", target)
	var curves []*metrics.Curve
	for _, system := range fig6Systems {
		res, err := runTuned6(system, spec, w, cfg)
		if err != nil {
			return nil, err
		}
		curves = append(curves, res.Curve)
		r.Curves = append(r.Curves, res.Curve)
		if tm, ok := res.Curve.TimeToReach(target); ok {
			r.addLine("%-8s reached target at %10.3f s (%d comm steps)", system, tm, res.CommSteps)
		} else {
			r.addLine("%-8s best %.4f after %d steps, %.3f s (target not reached)",
				system, res.Curve.Best(), res.CommSteps, res.SimTime)
		}
	}
	r.addCurveCSV(id + "_curves.csv")
	r.addCurveSVG(id+".svg", r.Title)
	return r, nil
}

// runFig6d computes the scalability panel: for each system, the speedup in
// time-to-objective when growing the cluster from 32 to 64 and 128
// machines, normalized to the 32-machine time — the paper's headline being
// how FAR below linear these land (MLlib even slows down).
func runFig6d(cfg RunConfig) (*Report, error) {
	w, err := loadWorkload("wx", cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig6d", Title: "Speedup vs #machines on WX (normalized to 32 machines)"}
	// A fixed, reachable objective so every configuration is measured at
	// the same quality bar.
	target := w.reference(0) + 0.05
	csv := "system,machines,time_to_target,speedup_vs_32\n"
	for _, system := range fig6Systems {
		base := 0.0
		line := fmt.Sprintf("%-8s", system)
		for _, m := range fig6Machines {
			res, err := runTuned6(system, clusters.Cluster2(m), w, cfg)
			if err != nil {
				return nil, err
			}
			tm, ok := res.Curve.TimeToReach(target)
			if !ok {
				tm = res.SimTime * 2 // penalize missing the bar
			}
			if m == fig6Machines[0] {
				base = tm
			}
			speedup := base / tm
			line += fmt.Sprintf("  %3d machines: %8.3fs (%.2fx)", m, tm, speedup)
			csv += fmt.Sprintf("%s,%d,%.6f,%.4f\n", system, m, tm, speedup)
			r.addMetric(fmt.Sprintf("%s_speedup_%d", safe(system), m), speedup)
		}
		r.addLine("%s", line)
	}
	r.addLine("Expected shape: far below the linear 4x at 128 machines; MLlib may even slow down.")
	r.addFile("fig6d_scalability.csv", csv)
	return r, nil
}
