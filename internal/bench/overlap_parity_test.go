package bench

// Overlap-vs-precomputed bit-identity: producing the gradient feature-major
// inside the pipelined collective (-overlap, allreduce.AverageProduced) must
// change nothing but virtual time. The two-pass kernel visits each (row,
// coordinate) pair with the same derivative bits and the same ascending-row
// addition order as the row-major gradient it replaces, and the collective
// ships per-chunk encodings that are byte-for-byte slices of the sequential
// whole-partition encodings — so, like the pipeline switch, overlap-on must
// match overlap-off on every training numeric AND charge exactly the same
// TotalBytes. The crossings here cover the two trainers whose gradient
// collectives stream (LBFGS* and SVRG) against the sparse exchange and the
// offload pool.

import (
	"testing"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/glm"
	"mllibstar/internal/lbfgs"
	"mllibstar/internal/train"
)

// runWithOverlap runs fn with overlapped gradient production in the given
// mode and restores the defaults (off) afterwards. Like the -overlap flag,
// on implies the pipelined chunked collective; off leaves both schedules
// off, so the comparison spans the entire overlap stack.
func runWithOverlap(on bool, fn func()) {
	allreduce.Configure(on, 0)
	allreduce.ConfigureOverlap(on)
	defer func() {
		allreduce.ConfigureOverlap(false)
		allreduce.Configure(false, 0)
	}()
	fn()
}

func TestPipelineOverlapBitIdentityLBFGS(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *train.Result {
		_, _, ctx := clusters.Test(4).Build(nil)
		parts := w.ds.Partition(4, 3)
		res, err := lbfgs.TrainDistributed(ctx, parts, w.ds.Features, lbfgs.DistConfig{
			Objective: glm.LogReg(0.01),
			MaxIters:  6,
			AllReduce: true,
		}, w.eval, w.ds.Name)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, sparseOn := range []bool{false, true} {
		var off, on *train.Result
		cell := func() {
			runWithOverlap(false, func() { off = run() })
			runWithOverlap(true, func() { on = run() })
		}
		if sparseOn {
			runWithSparse(true, cell)
		} else {
			cell()
		}
		name := "LBFGS-allreduce"
		if sparseOn {
			name += " sparse"
		}
		requirePipelineParity(t, name, off, on)
	}
}

func TestPipelineOverlapBitIdentitySVRG(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	prm := train.Params{Objective: glm.LogReg(0.01), Eta: 0.1, MaxSteps: 5, EvalEvery: 1, Seed: 7}
	run := func() *train.Result {
		_, _, ctx := clusters.Test(4).Build(nil)
		parts := w.ds.Partition(4, 3)
		res, err := core.TrainSVRG(ctx, parts, w.ds.Features, prm, w.eval, w.ds.Name)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, sparseOn := range []bool{false, true} {
		var off, on *train.Result
		cell := func() {
			runWithOverlap(false, func() { off = run() })
			runWithOverlap(true, func() { on = run() })
		}
		if sparseOn {
			runWithSparse(true, cell)
		} else {
			cell()
		}
		name := "MLlib*-SVRG"
		if sparseOn {
			name += " sparse"
		}
		requirePipelineParity(t, name, off, on)
	}
}

// TestPipelineOverlapBothPoolModes crosses overlap×par: the overlapped
// schedule charges block production through the same ChargeAsync the
// precomputed pass uses, so with overlap on, par=off and par=on must agree
// on everything including SimTime bits.
func TestPipelineOverlapBothPoolModes(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *train.Result {
		_, _, ctx := clusters.Test(4).Build(nil)
		parts := w.ds.Partition(4, 3)
		res, err := lbfgs.TrainDistributed(ctx, parts, w.ds.Features, lbfgs.DistConfig{
			Objective: glm.LogReg(0.01),
			MaxIters:  6,
			AllReduce: true,
		}, w.eval, w.ds.Name)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var seq, con *train.Result
	runWithOverlap(true, func() {
		runWithPar(false, func() { seq = run() })
		runWithPar(true, func() { con = run() })
	})
	requireSameResult(t, "LBFGS-allreduce overlapped", seq, con)
}
