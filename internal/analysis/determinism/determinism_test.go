package determinism_test

import (
	"testing"

	"mllibstar/internal/analysis/analysistest"
	"mllibstar/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata/src/a", determinism.Analyzer)
}

// The taint corpus: every source is suppressed in place, and every finding
// is a sink its taint reaches.
func TestDeterminismTaint(t *testing.T) {
	analysistest.Run(t, "testdata/src/flow", determinism.Analyzer)
}

// The slab-kernel corpus distills internal/data's hot-loop idioms — running
// loss sums threaded through per-block calls, two-row pipelined margin
// folds, structural work charges — which are exactly the sink shapes the
// taint half watches. Nothing there derives from a map range or the wall
// clock, so the corpus holds no want and the analyzer must stay silent: the
// kernels' determinism comes from slab order, not from suppressions.
func TestDeterminismSilentOnKernelIdioms(t *testing.T) {
	analysistest.Run(t, "testdata/src/kernel", determinism.Analyzer)
}
