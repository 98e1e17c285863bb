package core_test

import (
	"math"
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/data"
	"mllibstar/internal/engine"
	"mllibstar/internal/glm"
	"mllibstar/internal/opt"
	"mllibstar/internal/train"
)

// smallWorkload builds a deterministic toy dataset with k partitions.
func smallWorkload(k int) (*data.Dataset, []data.View) {
	d := data.Generate(data.Spec{
		Name: "toy", Rows: 1600, Cols: 200, NNZPerRow: 10, Seed: 11, NoiseRate: 0.02,
	})
	return d, d.Partition(k, 3)
}

func runSystem(t *testing.T, system string, k int, prm train.Params) *train.Result {
	t.Helper()
	d, parts := smallWorkload(k)
	_, _, ctx := clusters.Test(k).Build(nil)
	res, err := core.Train(system, ctx, parts, d.Features, prm, d.View(), d.Name)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func baseParams() train.Params {
	return train.Params{
		Objective:     glm.SVM(0),
		Eta:           0.1,
		Decay:         true,
		BatchFraction: 0.1,
		MaxSteps:      60,
		Seed:          5,
	}
}

func TestAllSystemsApproachSequentialOptimum(t *testing.T) {
	d, _ := smallWorkload(4)
	obj := glm.SVM(0.01)
	ref := opt.ReferenceOptimumOn(obj, d.View(), d.View(), d.Features, 30)

	for _, tc := range []struct {
		name  string
		sys   string
		steps int
		eta   float64
	}{
		// MLlib applies one update per communication step, so it needs far
		// more steps and a larger rate — itself the paper's observation.
		{"mllib", core.MLlib, 1200, 1.0},
		{"mavg", core.MLlibMA, 60, 0.1},
		{"mllibstar", core.MLlibStar, 60, 0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prm := baseParams()
			prm.Objective = obj
			prm.MaxSteps = tc.steps
			prm.Eta = tc.eta
			prm.EvalEvery = 5
			res := runSystem(t, tc.sys, 4, prm)
			best := res.Curve.Best()
			// The convex objective has a unique optimum; every system must
			// close most of the gap from the zero-model loss (~1.0).
			if best > ref+0.15 {
				t.Errorf("%s best objective %g, reference optimum %g", tc.name, best, ref)
			}
		})
	}
}

func TestMLlibStarConvergesInFarFewerSteps(t *testing.T) {
	// The paper's B1: SendGradient applies one update per communication
	// step, SendModel applies |partition| updates. Figure 4 reports 10x-200x
	// step reductions; at our scale even a conservative 3x must hold at a
	// fixed objective target.
	prm := baseParams()
	prm.MaxSteps = 40
	starRes := runSystem(t, core.MLlibStar, 4, prm)

	// Target: what MLlib* comfortably reaches; ask MLlib to match it.
	target := starRes.Curve.Best() + 0.02
	prm.MaxSteps = 400
	prm.Eta = 1.0 // favor the baseline
	prm.TargetObjective = target
	mlRes := runSystem(t, core.MLlib, 4, prm)

	starSteps, ok1 := starRes.Curve.StepsToReach(target)
	mlSteps, ok2 := mlRes.Curve.StepsToReach(target)
	if !ok1 {
		t.Fatalf("MLlib* did not reach target %g (best %g)", target, starRes.Curve.Best())
	}
	if !ok2 {
		// MLlib failing to reach the target within 400 steps while MLlib*
		// succeeds is itself the paper's result.
		t.Logf("MLlib did not reach target in %d steps (best %g); MLlib* took %d",
			prm.MaxSteps, mlRes.Curve.Best(), starSteps)
		return
	}
	if float64(mlSteps) < 3*float64(starSteps) {
		t.Errorf("steps: MLlib %d vs MLlib* %d — expected ≥3x reduction", mlSteps, starSteps)
	}
}

func TestMLlibStarFasterPerStepThanMAVGOnLargeModels(t *testing.T) {
	// The paper's B2: with model averaging alone, model traffic still
	// serializes at the driver, so per-step latency exceeds AllReduce's.
	d := data.Generate(data.Spec{Name: "wide", Rows: 800, Cols: 20000, NNZPerRow: 8, Seed: 2})
	parts := d.Partition(8, 3)
	prm := baseParams()
	prm.MaxSteps = 5

	perStep := func(system string) float64 {
		_, _, ctx := clusters.Test(8).Build(nil)
		res, err := core.Train(system, ctx, parts, d.Features, prm, d.View(), d.Name)
		if err != nil {
			t.Fatal(err)
		}
		return res.SimTime / float64(res.CommSteps)
	}
	star := perStep(core.MLlibStar)
	ma := perStep(core.MLlibMA)
	if star >= ma {
		t.Errorf("per-step time: MLlib* %g >= MLlib+MA %g — AllReduce should beat the driver path", star, ma)
	}
}

func TestTrafficPerStepMatches2km(t *testing.T) {
	// Both MLlib and MLlib* move ~2·k·m bytes per communication step (the
	// paper's invariant; MLlib* saves latency, not bytes).
	d := data.Generate(data.Spec{Name: "m", Rows: 400, Cols: 5000, NNZPerRow: 6, Seed: 4})
	const k = 4
	parts := d.Partition(k, 3)
	prm := baseParams()
	prm.MaxSteps = 4
	prm.Aggregators = k // flat aggregation so MLlib's pattern is exactly 2km

	bytesPerStep := func(system string) float64 {
		_, _, ctx := clusters.Test(k).Build(nil)
		res, err := core.Train(system, ctx, parts, d.Features, prm, d.View(), d.Name)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalBytes / float64(res.CommSteps)
	}
	m := float64(d.Features) * engine.FloatBytes
	wantStar := 2 * float64(k-1) * m // (k-1)/k × 2km: owners skip themselves
	gotStar := bytesPerStep(core.MLlibStar)
	if math.Abs(gotStar-wantStar) > 0.1*wantStar {
		t.Errorf("MLlib* bytes/step = %g, want ~%g", gotStar, wantStar)
	}
	wantML := 2 * float64(k) * m // broadcast k·m + gradients k·m (dim+1 ≈ dim)
	gotML := bytesPerStep(core.MLlib)
	if math.Abs(gotML-wantML) > 0.1*wantML {
		t.Errorf("MLlib bytes/step = %g, want ~%g", gotML, wantML)
	}
}

func TestLocalModelsIdenticalAfterStep(t *testing.T) {
	// After each AllReduce the executors' models must be bit-identical;
	// FinalW is locals[0], so re-running with 1 executor and k executors
	// from the same initial state must both yield finite, consistent models.
	prm := baseParams()
	prm.MaxSteps = 3
	res := runSystem(t, core.MLlibStar, 4, prm)
	for _, v := range res.FinalW {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite weight in final model")
		}
	}
	if res.CommSteps != 3 {
		t.Errorf("comm steps = %d", res.CommSteps)
	}
	if res.Updates == 0 {
		t.Error("no updates recorded")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	prm := baseParams()
	prm.MaxSteps = 5
	a := runSystem(t, core.MLlibStar, 4, prm)
	b := runSystem(t, core.MLlibStar, 4, prm)
	if a.SimTime != b.SimTime {
		t.Errorf("sim times differ: %g vs %g", a.SimTime, b.SimTime)
	}
	for i := range a.FinalW {
		if a.FinalW[i] != b.FinalW[i] {
			t.Fatalf("weights differ at %d", i)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	_, _, ctx := clusters.Test(2).Build(nil)
	prm := baseParams()
	prm.Eta = 0
	if _, err := core.Train(core.MLlibStar, ctx, make([]data.View, 2), 4, prm, data.View{}, "d"); err == nil {
		t.Error("want error for eta=0")
	}
}

// TestLBFGSIgnoresEta: the L-BFGS systems pick their step by line search, so
// a zero Eta is no error for them, and the iterates do not depend on it.
func TestLBFGSIgnoresEta(t *testing.T) {
	for _, system := range []string{core.LBFGS, core.LBFGSStar} {
		if core.ReadsEta(system) {
			t.Errorf("%s: the table says it reads Eta", system)
		}
		prm := train.Params{Objective: glm.LogReg(0.01), MaxSteps: 3}
		zero := runSystem(t, system, 2, prm)
		prm.Eta = 0.7
		set := runSystem(t, system, 2, prm)
		for i := range zero.FinalW {
			if math.Float64bits(zero.FinalW[i]) != math.Float64bits(set.FinalW[i]) {
				t.Fatalf("%s: weight %d is %v with Eta 0, %v with Eta 0.7", system, i, zero.FinalW[i], set.FinalW[i])
			}
		}
	}
	if !core.ReadsEta(core.MLlibStar) {
		t.Error("MLlib*: the table says it does not read Eta")
	}
}

func TestPartitionCountMismatch(t *testing.T) {
	_, _, ctx := clusters.Test(3).Build(nil)
	prm := baseParams()
	if _, err := core.Train(core.MLlibStar, ctx, make([]data.View, 2), 4, prm, data.View{}, "d"); err == nil {
		t.Error("want error for wrong partition count")
	}
}

func TestTargetObjectiveStopsEarly(t *testing.T) {
	prm := baseParams()
	prm.MaxSteps = 100
	prm.TargetObjective = 0.9 // easily reached in 1-2 steps
	res := runSystem(t, core.MLlibStar, 4, prm)
	if res.CommSteps >= 100 {
		t.Errorf("did not stop early: %d steps", res.CommSteps)
	}
}

func TestMaxSimTimeStops(t *testing.T) {
	prm := baseParams()
	prm.MaxSteps = 10000
	prm.MaxSimTime = 0.5
	res := runSystem(t, core.MLlibStar, 4, prm)
	if res.CommSteps >= 10000 {
		t.Error("MaxSimTime did not bound the run")
	}
}

func TestLazyL2PathUsedWhenRegularized(t *testing.T) {
	// With L2 the local pass must stay nnz-cost (lazy updates): compare sim
	// time against the unregularized run — they should be within 2x even
	// though an eager dense pass would be ~dim/nnz (2000x) slower.
	d := data.Generate(data.Spec{Name: "wide", Rows: 400, Cols: 20000, NNZPerRow: 8, Seed: 2})
	parts := d.Partition(4, 3)
	run := func(l2 float64) float64 {
		_, _, ctx := clusters.Test(4).Build(nil)
		prm := baseParams()
		prm.Objective = glm.SVM(l2)
		prm.MaxSteps = 3
		res, err := core.Train(core.MLlibStar, ctx, parts, d.Features, prm, d.View(), d.Name)
		if err != nil {
			t.Fatal(err)
		}
		return res.SimTime
	}
	t0, tReg := run(0), run(0.1)
	if tReg > 2.5*t0 {
		t.Errorf("regularized run %gx slower than unregularized — lazy L2 not effective", tReg/t0)
	}
}

func TestAdaGradLocalOptimizer(t *testing.T) {
	prm := baseParams()
	prm.AdaGrad = true
	prm.Eta = 0.5
	prm.MaxSteps = 20
	res := runSystem(t, core.MLlibStar, 4, prm)
	first := res.Curve.Points[0].Objective
	if best := res.Curve.Best(); best >= first*0.7 {
		t.Errorf("AdaGrad barely moved: %g -> %g", first, best)
	}
	// Accumulators persist across steps: later steps are smaller, so the
	// objective trajectory should be non-exploding throughout.
	for _, p := range res.Curve.Points {
		if p.Objective > first*1.5 {
			t.Errorf("AdaGrad unstable at step %d: %g", p.Step, p.Objective)
		}
	}
}

func TestReweightScalesLocalSteps(t *testing.T) {
	// Reweighting with base eta/k must match plain averaging with base eta:
	// it is exactly a k-scaling of the local step size.
	prm := baseParams()
	prm.Decay = false
	prm.MaxSteps = 5
	prm.Eta = 0.4
	plain := runSystem(t, core.MLlibStar, 4, prm)

	prm.Reweight = true
	prm.Eta = 0.1 // 0.1 * k(=4) = 0.4
	rew := runSystem(t, core.MLlibStar, 4, prm)
	for i := range plain.FinalW {
		if math.Abs(plain.FinalW[i]-rew.FinalW[i]) > 1e-12 {
			t.Fatalf("reweight(eta/k) != plain(eta) at coord %d", i)
		}
	}
}

func TestSVRGRejectsHinge(t *testing.T) {
	_, _, ctx := clusters.Test(2).Build(nil)
	prm := baseParams() // hinge
	if _, err := core.Train(core.MLlibStarSVRG, ctx, make([]data.View, 2), 4, prm, data.View{}, "d"); err == nil {
		t.Error("want error for hinge")
	}
}

func TestSVRGMatchesOrBeatsSGDPerStep(t *testing.T) {
	// With a constant step on a smooth strongly convex objective, SVRG's
	// corrected steps reach a lower objective than plain local SGD at the
	// same step budget.
	d, parts := smallWorkload(4)
	obj := glm.LogReg(0.05)
	run := func(svrg bool) float64 {
		_, _, ctx := clusters.Test(4).Build(nil)
		prm := baseParams()
		prm.Objective = obj
		prm.Decay = false
		prm.Eta = 0.2
		prm.MaxSteps = 10
		var res *train.Result
		var err error
		if svrg {
			res, err = core.Train(core.MLlibStarSVRG, ctx, parts, d.Features, prm, d.View(), d.Name)
		} else {
			res, err = core.Train(core.MLlibStar, ctx, parts, d.Features, prm, d.View(), d.Name)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res.Curve.Final().Objective
	}
	sgd, svrg := run(false), run(true)
	if svrg > sgd+1e-6 {
		t.Errorf("SVRG final %g worse than SGD %g at equal steps", svrg, sgd)
	}
}

func TestSVRGDoublesTrafficPerStep(t *testing.T) {
	// SVRG runs two AllReduces per step (gradient + model): bytes per step
	// must be ~2x plain MLlib*'s.
	d, parts := smallWorkload(4)
	obj := glm.LogReg(0.01)
	perStep := func(svrg bool) float64 {
		_, _, ctx := clusters.Test(4).Build(nil)
		prm := baseParams()
		prm.Objective = obj
		prm.MaxSteps = 4
		var res *train.Result
		var err error
		if svrg {
			res, err = core.Train(core.MLlibStarSVRG, ctx, parts, d.Features, prm, d.View(), d.Name)
		} else {
			res, err = core.Train(core.MLlibStar, ctx, parts, d.Features, prm, d.View(), d.Name)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalBytes / float64(res.CommSteps)
	}
	plain, svrg := perStep(false), perStep(true)
	ratio := svrg / plain
	// Somewhat under 2 because fixed dispatch/result bytes are identical
	// in both variants.
	if ratio < 1.6 || ratio > 2.2 {
		t.Errorf("SVRG traffic ratio = %g, want ~2", ratio)
	}
}
