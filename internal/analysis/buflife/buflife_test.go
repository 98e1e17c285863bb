package buflife_test

import (
	"testing"

	"mllibstar/internal/analysis/analysistest"
	"mllibstar/internal/analysis/buflife"
)

// Every Put in the corpus hides inside a nested branch, behind defer, or
// inside a callee, and every escape involves a local rather than a
// parameter.
func TestBuflife(t *testing.T) {
	analysistest.Run(t, "testdata/src/a", buflife.Analyzer)
}

// The straight-line cases: use after Put or PutVec, a second Put, and a
// received payload read after its Put, each in one statement list.
func TestBuflifeStraightLine(t *testing.T) {
	analysistest.Run(t, "testdata/src/pool", buflife.Analyzer)
}

// The slab-kernel corpus distills internal/data's hot-loop idioms: pooled
// gradient scratch borrowed (never retired) by kernel callees, a Put after
// the last use, and a deferred Put covering every exit. The reslice-heavy
// pipelined inner loops must not confuse the lifetime tracking — the corpus
// holds no want, and buflife stays silent on balanced kernel code.
func TestBuflifeSilentOnKernelIdioms(t *testing.T) {
	analysistest.Run(t, "testdata/src/kernel", buflife.Analyzer)
}

// The message corpus distills internal/ps: Pool.Copy acquires the snapshot a
// message carries, the receiver Puts it, and a received payload read after
// its Put is a use of recycled memory.
func TestBuflifeMessagePayloads(t *testing.T) {
	analysistest.Run(t, "testdata/src/msg", buflife.Analyzer)
}
