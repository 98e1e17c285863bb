package bench

// Traffic accounting for the sparse model-delta exchange. The preset
// workloads at test scale are dense in the model dimension (a few dozen
// features, every one touched each step), so the encoder correctly keeps
// choosing the dense form there. The workload here reproduces the regime
// the paper's datasets actually live in — a feature space orders of
// magnitude wider than any one step's support (kddb: 29M features, ~29 nnz
// per row) — where index–value coding pays off.

import (
	"sync"
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/data"
	"mllibstar/internal/obs"
	"mllibstar/internal/train"
)

var (
	sparseWorkloadOnce sync.Once
	sparseWorkload     *workload
)

// highDimWorkload generates (once per process) a paper-scale-sparsity
// dataset: 80k features, ~8 nonzeros per row, Zipf-skewed feature
// popularity. Any one executor's partition touches a few thousand distinct
// coordinates, so model deltas and gradient partials are ~1-2% dense.
func highDimWorkload() *workload {
	sparseWorkloadOnce.Do(func() {
		ds := data.Generate(data.Spec{
			Name:      "highdim",
			Rows:      1600,
			Cols:      80000,
			NNZPerRow: 8,
			ZipfS:     1.7,
			Seed:      11,
		})
		sparseWorkload = &workload{
			ds:      ds,
			eval:    ds.Subsample(200, 17).Examples,
			refOpts: map[float64]float64{},
		}
	})
	return sparseWorkload
}

// TestSparseTrafficReduction pins the acceptance criterion: on a workload
// at paper-scale sparsity, enabling sparse exchange must cut the simulated
// communication bytes by at least 5x for the shuffle-based systems — while
// leaving every training numeric bit-identical (the virtual clock shrinks;
// see sparse_parity_test.go for why time is excluded).
func TestSparseTrafficReduction(t *testing.T) {
	w := highDimWorkload()
	for _, system := range []string{sysMLlibStar, sysMLlib, sysMAvg} {
		prm := tuned(system, w.ds.Name, 0.1)
		prm.MaxSteps = 6
		run := func() *train.Result {
			res, err := runSystem(system, clusters.Test(4), w, prm, obs.Active())
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		var off, on *train.Result
		runWithSparse(false, func() { off = run() })
		runWithSparse(true, func() { on = run() })
		requireSameNumerics(t, system, off, on)
		if on.TotalBytes <= 0 {
			t.Fatalf("%s: sparse run charged no bytes", system)
		}
		ratio := off.TotalBytes / on.TotalBytes
		t.Logf("%s: %.0f bytes dense, %.0f sparse (%.1fx reduction)",
			system, off.TotalBytes, on.TotalBytes, ratio)
		if ratio < 5 {
			t.Errorf("%s: communication reduced only %.2fx, want >= 5x", system, ratio)
		}
		if on.SimTime >= off.SimTime {
			t.Errorf("%s: fewer bytes (%.0f < %.0f) but no virtual-time win (%.3fs vs %.3fs)",
				system, on.TotalBytes, off.TotalBytes, on.SimTime, off.SimTime)
		}
	}
}
