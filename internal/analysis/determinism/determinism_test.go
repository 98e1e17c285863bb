package determinism_test

import (
	"testing"

	"mllibstar/internal/analysis/analysistest"
	"mllibstar/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata/src/a", determinism.Analyzer)
}

// The slab-kernel corpus distills internal/data's hot-loop idioms — running
// loss sums threaded through per-block calls, two-row pipelined margin
// folds, structural work charges. None of them ranges over a map, reads the
// wall clock or draws from global rand state, so the analyzer must stay
// silent: the kernels' determinism comes from slab order, not from
// suppressions.
func TestDeterminismSilentOnKernelIdioms(t *testing.T) {
	analysistest.Run(t, "testdata/src/kernel", determinism.Analyzer)
}
