package angel_test

import (
	"testing"

	"mllibstar/internal/angel"
	"mllibstar/internal/clusters"
	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/train"
)

func workload(k int) (*data.Dataset, []data.View) {
	d := data.Generate(data.Spec{
		Name: "toy", Rows: 1200, Cols: 150, NNZPerRow: 8, Seed: 11, NoiseRate: 0.02,
	})
	return d, d.Partition(k, 3)
}

func params(steps int) train.Params {
	return train.Params{
		Objective:     glm.SVM(0.01),
		Eta:           0.5,
		Decay:         true,
		BatchFraction: 0.1,
		MaxSteps:      steps,
		EvalEvery:     2,
		Seed:          5,
	}
}

func run(t *testing.T, prm train.Params, k int) *train.Result {
	t.Helper()
	d, parts := workload(k)
	sim, net, names := clusters.Test(k).BuildNet(nil)
	res, err := angel.Train(sim, net, names, parts, d.Features, prm, d.View(), d.Name)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestUpdatesCountBatchesPerEpoch(t *testing.T) {
	res := run(t, params(5), 4)
	// 4 workers x 10 batches/epoch (fraction 0.1) x 5 epochs.
	if res.Updates != 4*10*5 {
		t.Errorf("updates = %d, want 200", res.Updates)
	}
}

func TestAllocOverheadScalesWithBatches(t *testing.T) {
	// Same data, same epochs; 10x more batches must cost measurably more
	// simulated time purely from the per-batch allocation charge.
	small := params(5)
	small.BatchFraction = 0.01
	big := params(5)
	big.BatchFraction = 0.1
	tSmall := run(t, small, 4).SimTime
	tBig := run(t, big, 4).SimTime
	if tSmall <= tBig {
		t.Errorf("tiny batches (%g s) should cost more than large ones (%g s)", tSmall, tBig)
	}
}

func TestStalenessAllowsProgressSkew(t *testing.T) {
	// With BSP every epoch is a barrier; with staleness the same run must
	// not be slower. (On a homogeneous simulated cluster the times can tie;
	// the invariant worth pinning is "SSP never loses to BSP".)
	bsp := params(10)
	ssp := params(10)
	ssp.Staleness = 2
	tBSP := run(t, bsp, 4).SimTime
	tSSP := run(t, ssp, 4).SimTime
	if tSSP > tBSP*1.001 {
		t.Errorf("SSP run (%g s) slower than BSP (%g s)", tSSP, tBSP)
	}
}

func TestDeterministic(t *testing.T) {
	a := run(t, params(6), 3)
	b := run(t, params(6), 3)
	if a.SimTime != b.SimTime || a.Curve.Final().Objective != b.Curve.Final().Objective {
		t.Error("Angel runs not reproducible")
	}
}

func TestValidation(t *testing.T) {
	sim, net, names := clusters.Test(2).BuildNet(nil)
	prm := params(5)
	if _, err := angel.Train(sim, net, names, make([]data.View, 3), 10, prm, data.View{}, "d"); err == nil {
		t.Error("want partition mismatch error")
	}
	sim2, net2, names2 := clusters.Test(2).BuildNet(nil)
	bad := params(0)
	if _, err := angel.Train(sim2, net2, names2, make([]data.View, 2), 10, bad, data.View{}, "d"); err == nil {
		t.Error("want validation error")
	}
}

func TestMaxSimTimeBounds(t *testing.T) {
	prm := params(100000)
	prm.MaxSimTime = 0.05
	res := run(t, prm, 2)
	if res.CommSteps >= 100000 {
		t.Error("MaxSimTime ignored")
	}
}
