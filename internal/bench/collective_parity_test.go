package bench

// Collective-settings bit-identity: chunking (-pipeline), overlapped
// gradient production (-overlap) and their crossings with the sparse
// exchange must change nothing but virtual time. Every column of the one
// table below is a collective setting, every row a trainer; a cell trains
// under its setting with the offload pool off and on — the two runs must
// agree on everything, SimTime bits included — and must match the row's
// unchunked run under the same sparse setting on every training numeric AND
// on TotalBytes exactly: chunks inherit their partition's encoding decision
// and the fold order is canonical, so not even the modeled payload bytes
// may move. The driver-aggregating, parameter-server and tree-aggregate
// L-BFGS rows never call the collectives; their parity holds trivially and
// pins that the switches do not leak into those paths.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/glm"
	"mllibstar/internal/lbfgs"
	"mllibstar/internal/obs"
	"mllibstar/internal/sparse"
	"mllibstar/internal/train"
)

// collectiveSetting is one column: the process-wide collective switches.
type collectiveSetting struct {
	name    string
	chunks  int // 1 = unchunked
	overlap bool
	sparse  bool
}

// The table's columns. The unchunked ones (off, sparse) are the baselines
// the others are held to.
var (
	colOff            = collectiveSetting{name: "off", chunks: 1}
	colPipeline       = collectiveSetting{name: "pipeline", chunks: allreduce.DefaultChunks}
	colOverlap        = collectiveSetting{name: "overlap", chunks: allreduce.DefaultChunks, overlap: true}
	colSparse         = collectiveSetting{name: "sparse", chunks: 1, sparse: true}
	colPipelineSparse = collectiveSetting{name: "pipeline×sparse", chunks: allreduce.DefaultChunks, sparse: true}
	colOverlapSparse  = collectiveSetting{name: "overlap×sparse", chunks: allreduce.DefaultChunks, overlap: true, sparse: true}
)

// withCollective runs fn under s and restores the defaults (all off)
// afterwards.
func withCollective(s collectiveSetting, fn func()) {
	allreduce.Configure(s.chunks)
	allreduce.ConfigureOverlap(s.overlap)
	sparse.Configure(s.sparse)
	defer func() {
		allreduce.Configure(1)
		allreduce.ConfigureOverlap(false)
		sparse.Configure(false)
	}()
	fn()
}

// requirePipelineParity is requireSameNumerics hardened to the collective
// contract: everything bitwise-equal and TotalBytes exactly equal.
func requirePipelineParity(t *testing.T, system string, off, on *train.Result) {
	t.Helper()
	requireSameNumerics(t, system, off, on)
	if off.TotalBytes != on.TotalBytes {
		t.Errorf("%s: charged %g bytes, unchunked %g — the collective settings must be byte-invariant",
			system, on.TotalBytes, off.TotalBytes)
	}
}

// trainerRow is one row: a trainer on the avazu test workload, recording
// into sink (nil records nothing). The telemetry parity table
// (telemetry_parity_test.go) runs the same rows.
type trainerRow struct {
	name string
	run  func(t *testing.T, w *workload, sink *obs.Sink) *train.Result
}

// systemRow runs a system at the given L2; at l2 = 0 the systems take their
// plain (non-lazy) SGD kernels.
func systemRow(system string, l2 float64) trainerRow {
	return trainerRow{name: fmt.Sprintf("%s@l2=%g", system, l2), run: func(t *testing.T, w *workload, sink *obs.Sink) *train.Result {
		prm := tuned(system, "avazu", l2)
		prm.MaxSteps = 8
		res, err := runSystem(system, clusters.Test(4), w, prm, sink)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}}
}

// lbfgsRow runs distributed L-BFGS aggregating through the AllReduce
// (LBFGS*) or through the driver's tree aggregate (LBFGS).
func lbfgsRow(name string, allReduce bool) trainerRow {
	return trainerRow{name: name, run: func(t *testing.T, w *workload, sink *obs.Sink) *train.Result {
		_, _, ctx := clusters.Test(4).Build(sink)
		res, err := lbfgs.TrainDistributed(ctx, w.ds.Partition(4, 3), w.ds.Features, lbfgs.DistConfig{
			Objective: glm.LogReg(0.01),
			MaxIters:  6,
			AllReduce: allReduce,
		}, w.eval, w.ds.Name)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}}
}

var (
	rowsMLlibStar = []trainerRow{systemRow(sysMLlibStar, 0.1), systemRow(sysMLlibStar, 0)}
	rowLBFGSStar  = lbfgsRow("LBFGS*", true)
	rowLBFGSTree  = lbfgsRow("LBFGS-tree", false)
	rowSVRG       = trainerRow{name: "MLlib*-SVRG", run: func(t *testing.T, w *workload, sink *obs.Sink) *train.Result {
		_, _, ctx := clusters.Test(4).Build(sink)
		prm := train.Params{Objective: glm.LogReg(0.01), Eta: 0.1, MaxSteps: 5, EvalEvery: 1, Seed: 7}
		res, err := core.TrainSVRG(ctx, w.ds.Partition(4, 3), w.ds.Features, prm, w.eval, w.ds.Name)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}}
	// The systems without a collective: the driver-aggregating and the
	// parameter-server ones.
	rowsNoCollective = []trainerRow{
		systemRow(sysMLlib, 0.1), systemRow(sysMLlib, 0), systemRow(sysMAvg, 0.1),
		systemRow(sysPetuumStar, 0.1), systemRow(sysPetuumStar, 0), systemRow(sysAngel, 0.1),
	}
	// The rows without a collective: those systems and L-BFGS on the tree
	// aggregate.
	rowsTrivial = append(slices.Clone(rowsNoCollective), rowLBFGSTree)
	// rowsNoProducer are the rows whose collectives (if any) take no
	// producer; overlap there is plain chunking.
	rowsNoProducer = append(slices.Clone(rowsMLlibStar), rowsTrivial...)
	rowsAll        = append([]trainerRow{rowLBFGSStar, rowSVRG}, rowsNoProducer...)
)

// runCollectiveTable runs the cells of rows × cols: each column in both pool
// modes, held to the row's unchunked column with the same sparse setting.
func runCollectiveTable(t *testing.T, rows []trainerRow, cols []collectiveSetting) {
	w, err := loadWorkload("avazu", RunConfig{Scale: 20000, EvalCap: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		for _, col := range cols {
			t.Run(row.name+"/"+col.name, func(t *testing.T) {
				var seq, con *train.Result
				withCollective(col, func() {
					runWithPar(false, func() { seq = row.run(t, w, nil) })
					runWithPar(true, func() { con = row.run(t, w, nil) })
				})
				requireSameResult(t, row.name+" "+col.name, seq, con)
				if col.chunks == 1 {
					return // a baseline
				}
				var base *train.Result
				withCollective(collectiveSetting{chunks: 1, sparse: col.sparse}, func() { base = row.run(t, w, nil) })
				requirePipelineParity(t, row.name+" "+col.name, base, con)
			})
		}
	}
}

// The tests below partition the table.

// TestPipelineBothPoolModes: the baselines, in both pool modes.
func TestPipelineBothPoolModes(t *testing.T) {
	runCollectiveTable(t, rowsAll, []collectiveSetting{colOff, colSparse})
}

func TestPipelineBitIdentityTrainers(t *testing.T) {
	runCollectiveTable(t, rowsNoProducer, []collectiveSetting{colPipeline})
}

func TestPipelineBitIdentityLBFGS(t *testing.T) {
	runCollectiveTable(t, []trainerRow{rowLBFGSStar}, []collectiveSetting{colPipeline})
}

func TestPipelineBitIdentitySVRG(t *testing.T) {
	runCollectiveTable(t, []trainerRow{rowSVRG}, []collectiveSetting{colPipeline})
}

// TestPipelineSparseCrossing: with sparse delta exchange on, chunking must
// still be numerically invisible and byte-exact (the chunked AllGather waits
// until the adaptive encoding decision sees the fully folded partition).
func TestPipelineSparseCrossing(t *testing.T) {
	runCollectiveTable(t, rowsAll, []collectiveSetting{colPipelineSparse})
}

func TestPipelineOverlapBitIdentityLBFGS(t *testing.T) {
	runCollectiveTable(t, []trainerRow{rowLBFGSStar}, []collectiveSetting{colOverlap, colOverlapSparse})
}

func TestPipelineOverlapBitIdentitySVRG(t *testing.T) {
	runCollectiveTable(t, []trainerRow{rowSVRG}, []collectiveSetting{colOverlap, colOverlapSparse})
}

// TestPipelineOverlapBothPoolModes: the overlap columns of the remaining
// rows.
func TestPipelineOverlapBothPoolModes(t *testing.T) {
	runCollectiveTable(t, rowsNoProducer, []collectiveSetting{colOverlap, colOverlapSparse})
}

// TestPipelineNoSlowdown pins the direction of the time change: on the
// comm-balanced cluster the pipelined schedule must make the high-
// dimensional MLlib* run strictly faster in virtual time (~1.8× at the
// default 8 chunks).
func TestPipelineNoSlowdown(t *testing.T) {
	w := highDimWorkload()
	prm := tuned(sysMLlibStar, "avazu", 0.1)
	prm.MaxSteps = 4
	run := func() *train.Result {
		res, err := runSystem(sysMLlibStar, clusters.CommBound(4), w, prm, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var off, on *train.Result
	withCollective(colOff, func() { off = run() })
	withCollective(colPipeline, func() { on = run() })
	requirePipelineParity(t, "MLlib* highdim", off, on)
	if math.IsNaN(on.SimTime) || on.SimTime >= off.SimTime {
		t.Errorf("pipelined SimTime %g is not below unchunked %g", on.SimTime, off.SimTime)
	}
}
