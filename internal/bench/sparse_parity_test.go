package bench

// Sparse-vs-dense bit-identity: the sparse model-delta exchange
// (internal/sparse) must not change a single bit of any training numeric —
// only wire bytes and therefore virtual time. Each test runs the same
// training twice — once with sparse exchange off (the dense path, which is
// the default and therefore byte-identical to the pre-sparse engine) and
// once with it on — and requires the final model, the step/update counters,
// and every (step, objective) point of the convergence curve to be
// byte-for-byte equal. Time is deliberately excluded from the comparison:
// shrinking messages shifts the virtual clock, which is the whole point.
//
// The configs below all stop on MaxSteps. Time- or target-stopped runs
// (MaxSimTime, TargetObjective against a time-interpolated table) are not
// valid parity subjects — a faster clock legitimately changes how many
// steps fit — which is why the fig4a report check lives only in the
// offload-parity suite, where the clock is part of the contract.

import (
	"math"
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/glm"
	"mllibstar/internal/lbfgs"
	"mllibstar/internal/sparse"
	"mllibstar/internal/train"
)

// runWithSparse runs fn with the sparse exchange in the given mode and
// restores the default (off) afterwards.
func runWithSparse(on bool, fn func()) {
	sparse.Configure(on)
	defer sparse.Configure(false)
	fn()
}

// requireSameNumerics fails unless the two results agree bitwise on every
// training numeric: final model, counters, and the (step, objective) pairs
// of the convergence curve. SimTime and the curve's time column are
// excluded — sparse exchange changes them by design — but the sparse run
// must never charge more wire bytes than the dense run.
func requireSameNumerics(t *testing.T, system string, off, on *train.Result) {
	t.Helper()
	if off.CommSteps != on.CommSteps || off.Updates != on.Updates {
		t.Errorf("%s: steps/updates (%d,%d) off != (%d,%d) on", system,
			off.CommSteps, off.Updates, on.CommSteps, on.Updates)
	}
	if len(off.FinalW) != len(on.FinalW) {
		t.Fatalf("%s: FinalW length %d != %d", system, len(off.FinalW), len(on.FinalW))
	}
	for j := range off.FinalW {
		if math.Float64bits(off.FinalW[j]) != math.Float64bits(on.FinalW[j]) {
			t.Fatalf("%s: FinalW[%d] = %x (off) != %x (on)", system, j,
				math.Float64bits(off.FinalW[j]), math.Float64bits(on.FinalW[j]))
		}
	}
	if len(off.Curve.Points) != len(on.Curve.Points) {
		t.Fatalf("%s: curve has %d points off, %d on", system,
			len(off.Curve.Points), len(on.Curve.Points))
	}
	for i, p := range off.Curve.Points {
		q := on.Curve.Points[i]
		if p.Step != q.Step {
			t.Errorf("%s: point %d at step %d (off) vs %d (on)", system, i, p.Step, q.Step)
		}
		if math.Float64bits(p.Objective) != math.Float64bits(q.Objective) {
			t.Errorf("%s: objective at step %d = %x (off) != %x (on)", system, p.Step,
				math.Float64bits(p.Objective), math.Float64bits(q.Objective))
		}
	}
	if on.TotalBytes > off.TotalBytes {
		t.Errorf("%s: sparse run charged more bytes (%g) than dense (%g)",
			system, on.TotalBytes, off.TotalBytes)
	}
}

func TestSparseExchangeBitIdentityTrainers(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		system string
		l2     float64
	}{
		{sysMLlib, 0.1},
		{sysMLlib, 0},
		{sysMAvg, 0.1},
		{sysMLlibStar, 0.1},
		{sysMLlibStar, 0},
		// The parameter-server systems keep dense wire charging (see
		// internal/sparse: SSP numerics are arrival-order dependent, so
		// changing message timing would change training results). Their
		// parity must hold trivially — included to pin that the switch
		// really does not leak into the PS path.
		{sysPetuumStar, 0.1},
		{sysPetuumStar, 0},
		{sysAngel, 0.1},
	} {
		prm := tuned(tc.system, "avazu", tc.l2)
		prm.MaxSteps = 8
		run := func() *train.Result {
			res, err := runSystem(tc.system, clusters.Test(4), w, prm, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		var off, on *train.Result
		runWithSparse(false, func() { off = run() })
		runWithSparse(true, func() { on = run() })
		requireSameNumerics(t, tc.system, off, on)
	}
}

func TestSparseExchangeBitIdentityLBFGS(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, allReduce := range []bool{false, true} {
		run := func() *train.Result {
			_, _, ctx := clusters.Test(4).Build(nil)
			parts := w.ds.Partition(4, 3)
			res, err := lbfgs.TrainDistributed(ctx, parts, w.ds.Features, lbfgs.DistConfig{
				Objective: glm.LogReg(0.01),
				MaxIters:  6,
				AllReduce: allReduce,
			}, w.eval, w.ds.Name)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		var off, on *train.Result
		runWithSparse(false, func() { off = run() })
		runWithSparse(true, func() { on = run() })
		name := "LBFGS-tree"
		if allReduce {
			name = "LBFGS-allreduce"
		}
		requireSameNumerics(t, name, off, on)
	}
}

func TestSparseExchangeBitIdentitySVRG(t *testing.T) {
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
	var off, on *train.Result
	runWithSparse(false, func() { off = run() })
	runWithSparse(true, func() { on = run() })
	requireSameNumerics(t, "MLlib*-SVRG", off, on)
}

// TestSparseExchangeBothPoolModes crosses the two switches: the sparse path
// must stay bit-identical whether closures run inline or on the offload
// pool (the canonical ascending-sender fold order is what makes this hold).
func TestSparseExchangeBothPoolModes(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	prm := tuned(sysMLlibStar, "avazu", 0.1)
	prm.MaxSteps = 8
	run := func() *train.Result {
		res, err := runSystem(sysMLlibStar, clusters.Test(4), w, prm, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var seq, con *train.Result
	runWithSparse(true, func() {
		runWithPar(false, func() { seq = run() })
		runWithPar(true, func() { con = run() })
	})
	requireSameResult(t, "MLlib* sparse", seq, con)
}
