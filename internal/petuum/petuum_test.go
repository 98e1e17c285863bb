package petuum_test

import (
	"testing"

	"mllibstar/internal/angel"
	"mllibstar/internal/clusters"
	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/opt"
	"mllibstar/internal/petuum"
	"mllibstar/internal/train"
)

func workload(k int) (*data.Dataset, []data.View) {
	d := data.Generate(data.Spec{
		Name: "toy", Rows: 1600, Cols: 200, NNZPerRow: 10, Seed: 11, NoiseRate: 0.02,
	})
	return d, d.Partition(k, 3)
}

func params(obj glm.Objective, steps int) train.Params {
	return train.Params{
		Objective:     obj,
		Eta:           0.1,
		Decay:         true,
		BatchFraction: 0.25,
		MaxSteps:      steps,
		EvalEvery:     5,
		Seed:          5,
	}
}

func runPetuum(t *testing.T, obj glm.Objective, steps int, summation petuum.Summation) *train.Result {
	t.Helper()
	d, parts := workload(4)
	sim, net, names := clusters.Test(4).BuildNet(nil)
	res, err := petuum.Train(sim, net, names, parts, d.Features, params(obj, steps), d.View(), d.Name, summation)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPetuumStarConvergesNoReg(t *testing.T) {
	d, _ := workload(4)
	ref := opt.ReferenceOptimumOn(glm.SVM(0), d.View(), d.View(), d.Features, 30)
	res := runPetuum(t, glm.SVM(0), 120, false)
	if best := res.Curve.Best(); best > ref+0.15 {
		t.Errorf("Petuum* best %g, reference %g", best, ref)
	}
	if res.System != petuum.SystemStar {
		t.Errorf("system = %q", res.System)
	}
}

func TestPetuumStarConvergesWithL2(t *testing.T) {
	// With L2, Petuum performs one dense batch-GD update per communication
	// step, so it needs many steps — the slowness the paper reports in
	// Figures 5(e)–(h). With enough steps it still reaches the optimum.
	d, parts := workload(4)
	obj := glm.SVM(0.01)
	ref := opt.ReferenceOptimumOn(obj, d.View(), d.View(), d.Features, 30)
	sim, net, names := clusters.Test(4).BuildNet(nil)
	prm := params(obj, 800)
	prm.Eta = 1.0
	res, err := petuum.Train(sim, net, names, parts, d.Features, prm, d.View(), d.Name, false)
	if err != nil {
		t.Fatal(err)
	}
	if best := res.Curve.Best(); best > ref+0.1 {
		t.Errorf("Petuum* best %g, reference %g", best, ref)
	}
}

func TestSummationDivergesWhereAveragingIsStable(t *testing.T) {
	// Zhang & Jordan [15]: model summation can diverge; model averaging
	// cannot. At a constant rate of 1.5 with 4 workers the summation rule's
	// objective climbs past its starting value while averaging converges —
	// the reason the paper builds Petuum*.
	run := func(sum petuum.Summation) *train.Result {
		d, parts := workload(4)
		sim, net, names := clusters.Test(4).BuildNet(nil)
		prm := params(glm.SVM(0), 40)
		prm.Eta = 1.5
		prm.Decay = false
		res, err := petuum.Train(sim, net, names, parts, d.Features, prm, d.View(), d.Name, sum)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	avg, sum := run(false), run(true)
	if sum.System != petuum.System || avg.System != petuum.SystemStar {
		t.Errorf("systems = %q, %q", sum.System, avg.System)
	}
	if final := avg.Curve.Final().Objective; final > 0.6 {
		t.Errorf("averaging unstable: final objective %g", final)
	}
	if final := sum.Curve.Final().Objective; final < 1.0 {
		t.Errorf("summation did not diverge: final objective %g", final)
	}
}

func TestUpdateCountReflectsRegularizationPath(t *testing.T) {
	// reg == 0: parallel SGD → ~batch-size updates per step.
	// reg != 0: one dense batch update per step.
	noReg := runPetuum(t, glm.SVM(0), 20, false)
	l2 := runPetuum(t, glm.SVM(0.1), 20, false)
	if noReg.Updates <= 10*l2.Updates {
		t.Errorf("updates: noReg=%d l2=%d — expected far more per-example updates without reg",
			noReg.Updates, l2.Updates)
	}
}

func TestTargetObjectiveStops(t *testing.T) {
	d, parts := workload(4)
	sim, net, names := clusters.Test(4).BuildNet(nil)
	prm := params(glm.SVM(0), 500)
	prm.EvalEvery = 1
	prm.TargetObjective = 0.9
	res, err := petuum.Train(sim, net, names, parts, d.Features, prm, d.View(), d.Name, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommSteps >= 500 {
		t.Errorf("did not stop early: %d steps", res.CommSteps)
	}
}

func TestValidationErrors(t *testing.T) {
	sim, net, names := clusters.Test(2).BuildNet(nil)
	prm := params(glm.SVM(0), 10)
	prm.Eta = -1
	if _, err := petuum.Train(sim, net, names, make([]data.View, 2), 10, prm, data.View{}, "d", false); err == nil {
		t.Error("want error for bad eta")
	}
	sim2, net2, names2 := clusters.Test(2).BuildNet(nil)
	if _, err := petuum.Train(sim2, net2, names2, make([]data.View, 3), 10, params(glm.SVM(0), 10), data.View{}, "d", false); err == nil {
		t.Error("want error for partition mismatch")
	}
}

func TestAngelConverges(t *testing.T) {
	d, parts := workload(4)
	ref := opt.ReferenceOptimumOn(glm.SVM(0.01), d.View(), d.View(), d.Features, 30)
	sim, net, names := clusters.Test(4).BuildNet(nil)
	prm := params(glm.SVM(0.01), 60)
	prm.Eta = 0.5
	res, err := angel.Train(sim, net, names, parts, d.Features, prm, d.View(), d.Name)
	if err != nil {
		t.Fatal(err)
	}
	if best := res.Curve.Best(); best > ref+0.2 {
		t.Errorf("Angel best %g, reference %g", best, ref)
	}
	if res.System != angel.System {
		t.Errorf("system = %q", res.System)
	}
}

func TestAngelSmallBatchOverhead(t *testing.T) {
	// The paper: Angel is inefficient with small batches because of the
	// per-batch gradient-vector allocation. Halving the batch size must
	// increase simulated time per epoch.
	d, parts := workload(4)
	timePerStep := func(frac float64) float64 {
		sim, net, names := clusters.Test(4).BuildNet(nil)
		prm := params(glm.SVM(0), 10)
		prm.BatchFraction = frac
		res, err := angel.Train(sim, net, names, parts, d.Features, prm, d.View(), d.Name)
		if err != nil {
			t.Fatal(err)
		}
		return res.SimTime / float64(res.CommSteps)
	}
	big, small := timePerStep(0.5), timePerStep(0.01)
	if small <= big {
		t.Errorf("per-epoch time with tiny batches (%g) not above large batches (%g)", small, big)
	}
}

func TestAngelCommunicatesPerEpochNotPerBatch(t *testing.T) {
	// Angel's bytes per communication step must not depend on batch size.
	d, parts := workload(4)
	bytesPerStep := func(frac float64) float64 {
		sim, net, names := clusters.Test(4).BuildNet(nil)
		prm := params(glm.SVM(0), 10)
		prm.BatchFraction = frac
		res, err := angel.Train(sim, net, names, parts, d.Features, prm, d.View(), d.Name)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalBytes / float64(res.CommSteps)
	}
	a, b := bytesPerStep(0.5), bytesPerStep(0.05)
	if a != b {
		t.Errorf("bytes/step differ with batch size: %g vs %g", a, b)
	}
}
