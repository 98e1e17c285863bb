package bench

import (
	"fmt"
	"sync"

	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/opt"
	"mllibstar/internal/train"
)

// workload is a prepared dataset: generated examples, partitions per
// cluster size (computed on demand), evaluation subsample, and the
// reference optimum per objective.
type workload struct {
	ds      *data.Dataset
	eval    data.View                 // the evaluation subsample's arena
	refOpts map[float64]float64       // l2 -> reference optimum on the eval set
	fig6    map[fig6Run]*train.Result // Figure 6 runs made without a sink
}

// workloadCache avoids regenerating datasets across experiments in one
// process (bench runs touch the same presets repeatedly).
var (
	workloadMu    sync.Mutex
	workloadCache = map[string]*workload{}
)

// loadWorkload generates (or retrieves) a preset dataset at the configured
// scale.
func loadWorkload(name string, cfg RunConfig) (*workload, error) {
	key := fmt.Sprintf("%s@%g/%d", name, cfg.scale(), cfg.evalCap())
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if w, ok := workloadCache[key]; ok {
		return w, nil
	}
	spec, err := data.Preset(name, cfg.scale())
	if err != nil {
		return nil, err
	}
	w := newWorkload(data.Generate(spec), cfg.evalCap())
	workloadCache[key] = w
	return w, nil
}

// newWorkload prepares ds with an evaluation subsample of at most evalCap
// rows.
func newWorkload(ds *data.Dataset, evalCap int) *workload {
	return &workload{ds: ds, eval: ds.Subsample(evalCap, 17).View(), refOpts: map[float64]float64{}, fig6: map[fig6Run]*train.Result{}}
}

// reference returns (caching) the reference optimum for SVM with the given
// L2 strength, computed on the evaluation subsample.
func (w *workload) reference(l2 float64) float64 {
	if v, ok := w.refOpts[l2]; ok {
		return v
	}
	v := opt.ReferenceOptimumOn(glm.SVM(l2), w.ds.View(), w.eval, w.ds.Features, 40)
	w.refOpts[l2] = v
	return v
}

// target is the paper's success criterion: optimum + 0.01 accuracy loss.
func (w *workload) target(l2 float64) float64 {
	return w.reference(l2) + 0.01
}

// tuned returns the default hyperparameters for a system on a dataset —
// the stand-in for the paper's grid search. Values were calibrated once on
// the scaled presets; enable RunConfig.Grid to re-search.
func tuned(system, dataset string, l2 float64) train.Params {
	prm := train.Params{
		Objective: glm.SVM(l2),
		Decay:     true,
		EvalEvery: 1,
		Seed:      7,
	}
	switch system {
	case "MLlib":
		prm.BatchFraction = 0.1
		if l2 > 0 {
			// Strong convexity from the L2 term: moderate rates converge.
			prm.Eta = 4.0
		} else {
			// One batch-averaged update per step on a hinge objective needs
			// rates that scale with the problem size (found by grid search
			// on the scaled presets, as the paper grid-searched at full
			// scale).
			prm.Eta = map[string]float64{
				"avazu": 12, "url": 8, "kddb": 8, "kdd12": 96, "wx": 48,
			}[dataset]
			if prm.Eta == 0 {
				prm.Eta = 12
			}
		}
	case "MLlib+MA", "MLlib*":
		if l2 > 0 {
			prm.Eta = 0.1
		} else {
			prm.Eta = 0.3
		}
	case "Petuum", "Petuum*":
		prm.Eta = 1.0
		prm.Staleness = 1
		if l2 > 0 {
			// With L2, each per-batch communication carries one dense
			// update; the grid prefers small batches for progress per pass,
			// which is what makes Petuum* slow here (paper §V-B).
			prm.BatchFraction = 0.01
		} else {
			prm.BatchFraction = 0.25
		}
	case "Angel":
		if l2 > 0 {
			prm.Eta = 1.0
			prm.BatchFraction = 0.05
		} else {
			// Dense batch-GD updates need aggressive rates, like MLlib's.
			prm.Eta = 10
			prm.BatchFraction = 0.01
		}
	default:
		panic("bench: unknown system " + system)
	}
	return prm
}

// etaGrid is the search grid used when RunConfig.Grid is set.
var etaGrid = []float64{1.0, 0.3, 0.1, 0.03}

// gridSearch runs the trial function for each eta over a short budget and
// returns the eta whose best objective is lowest.
func gridSearch(trial func(eta float64) (best float64, err error)) (float64, error) {
	bestEta, bestObj := etaGrid[0], 0.0
	first := true
	for _, eta := range etaGrid {
		obj, err := trial(eta)
		if err != nil {
			return 0, err
		}
		if first || obj < bestObj {
			bestEta, bestObj, first = eta, obj, false
		}
	}
	return bestEta, nil
}
