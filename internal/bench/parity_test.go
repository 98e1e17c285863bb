package bench

// Parallel-vs-sequential bit-identity: the offload pool (internal/par) must
// not change a single bit of any result. Each test runs the same training
// twice — once with the pool disabled (closures run inline, reproducing the
// pre-offload sequential engine exactly) and once with the pool force-enabled
// on 4 workers (closures run concurrently on real OS threads regardless of
// GOMAXPROCS) — and requires the final model, the virtual clock, and the
// whole convergence curve to be byte-for-byte equal.

import (
	"math"
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/glm"
	"mllibstar/internal/lbfgs"
	"mllibstar/internal/obs"
	"mllibstar/internal/par"
	"mllibstar/internal/train"
)

// runWithPar runs fn with the offload pool in the given mode and restores the
// default configuration afterwards.
func runWithPar(enabled bool, fn func()) {
	if enabled {
		par.ForceEnable(4)
	} else {
		par.Configure(false, 0)
	}
	defer par.Configure(true, 0)
	fn()
}

// requireSameResult fails unless the two results are bit-identical in every
// numeric output.
func requireSameResult(t *testing.T, system string, seq, con *train.Result) {
	t.Helper()
	if math.Float64bits(seq.SimTime) != math.Float64bits(con.SimTime) {
		t.Errorf("%s: SimTime %v (seq) != %v (par)", system, seq.SimTime, con.SimTime)
	}
	if seq.CommSteps != con.CommSteps || seq.Updates != con.Updates {
		t.Errorf("%s: steps/updates (%d,%d) != (%d,%d)", system,
			seq.CommSteps, seq.Updates, con.CommSteps, con.Updates)
	}
	if len(seq.FinalW) != len(con.FinalW) {
		t.Fatalf("%s: FinalW length %d != %d", system, len(seq.FinalW), len(con.FinalW))
	}
	for j := range seq.FinalW {
		if math.Float64bits(seq.FinalW[j]) != math.Float64bits(con.FinalW[j]) {
			t.Fatalf("%s: FinalW[%d] = %x (seq) != %x (par)", system, j,
				math.Float64bits(seq.FinalW[j]), math.Float64bits(con.FinalW[j]))
		}
	}
	if seqCSV, conCSV := seq.Curve.CSV(true), con.Curve.CSV(true); seqCSV != conCSV {
		t.Errorf("%s: convergence curves differ:\nseq:\n%s\npar:\n%s", system, seqCSV, conCSV)
	}
}

func TestParallelOffloadBitIdentityTrainers(t *testing.T) {
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
		{sysPetuumStar, 0.1},
		{sysPetuumStar, 0},
		{sysAngel, 0.1},
	} {
		prm := tuned(tc.system, "avazu", tc.l2)
		prm.MaxSteps = 8
		run := func() *train.Result {
			res, err := runSystem(tc.system, clusters.Test(4), w, prm, obs.Active())
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		var seq, con *train.Result
		runWithPar(false, func() { seq = run() })
		runWithPar(true, func() { con = run() })
		requireSameResult(t, tc.system, seq, con)
	}
}

func TestParallelOffloadBitIdentityLBFGS(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, allReduce := range []bool{false, true} {
		run := func() *train.Result {
			_, _, ctx := clusters.Test(4).Build(obs.Active())
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
		var seq, con *train.Result
		runWithPar(false, func() { seq = run() })
		runWithPar(true, func() { con = run() })
		name := "LBFGS-tree"
		if allReduce {
			name = "LBFGS-allreduce"
		}
		requireSameResult(t, name, seq, con)
	}
}

func TestParallelOffloadBitIdentitySVRG(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	prm := train.Params{Objective: glm.LogReg(0.01), Eta: 0.1, MaxSteps: 5, EvalEvery: 1, Seed: 7}
	run := func() *train.Result {
		_, _, ctx := clusters.Test(4).Build(obs.Active())
		parts := w.ds.Partition(4, 3)
		res, err := core.TrainSVRG(ctx, parts, w.ds.Features, prm, w.eval, w.ds.Name)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var seq, con *train.Result
	runWithPar(false, func() { seq = run() })
	runWithPar(true, func() { con = run() })
	requireSameResult(t, "MLlib*-SVRG", seq, con)
}

// TestParallelOffloadBitIdentityReport checks the end artifact too: the full
// fig4a experiment must emit byte-identical CSV files either way.
func TestParallelOffloadBitIdentityReport(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	runFig := func() *Report {
		r, err := must(t, "fig4a").Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var seq, con *Report
	runWithPar(false, func() { seq = runFig() })
	runWithPar(true, func() { con = runFig() })
	if seq.Files["fig4a_curves.csv"] != con.Files["fig4a_curves.csv"] {
		t.Error("fig4a_curves.csv differs between sequential and parallel runs")
	}
	if len(seq.Files["fig4a_curves.csv"]) == 0 {
		t.Error("empty fig4a_curves.csv")
	}
}
