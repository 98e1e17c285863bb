package mavg_test

import (
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/mavg"
	"mllibstar/internal/mllib"
	"mllibstar/internal/train"
)

func workload(k int) (*data.Dataset, []data.View) {
	d := data.Generate(data.Spec{
		Name: "toy", Rows: 800, Cols: 100, NNZPerRow: 8, Seed: 11, NoiseRate: 0.02,
	})
	return d, d.Partition(k, 3)
}

func params() train.Params {
	return train.Params{
		Objective: glm.SVM(0),
		Eta:       0.1,
		Decay:     true,
		MaxSteps:  20,
		Seed:      5,
	}
}

func TestManyUpdatesPerStep(t *testing.T) {
	d, parts := workload(4)
	_, _, ctx := clusters.Test(4).Build(nil)
	res, err := mavg.Train(ctx, parts, d.Features, params(), d.View(), d.Name)
	if err != nil {
		t.Fatal(err)
	}
	// SendModel applies |partition| local updates per worker per step.
	wantPerStep := int64(len(d.Examples))
	if res.Updates != wantPerStep*int64(res.CommSteps) {
		t.Errorf("updates = %d, want %d per step x %d steps", res.Updates, wantPerStep, res.CommSteps)
	}
}

func TestConvergesFasterPerStepThanMLlib(t *testing.T) {
	d, parts := workload(4)
	steps := func(fn func() (*train.Result, error)) float64 {
		res, err := fn()
		if err != nil {
			t.Fatal(err)
		}
		return res.Curve.Best()
	}
	_, _, ctxA := clusters.Test(4).Build(nil)
	prm := params()
	prm.MaxSteps = 15
	maBest := steps(func() (*train.Result, error) {
		return mavg.Train(ctxA, parts, d.Features, prm, d.View(), d.Name)
	})
	_, _, ctxB := clusters.Test(4).Build(nil)
	prmML := prm
	prmML.Eta = 0.5
	prmML.BatchFraction = 0.2
	mlBest := steps(func() (*train.Result, error) {
		return mllib.Train(ctxB, parts, d.Features, prmML, d.View(), d.Name)
	})
	if maBest >= mlBest {
		t.Errorf("after 15 steps: MLlib+MA best %g not below MLlib best %g", maBest, mlBest)
	}
}

func TestLocalPassesMultiplier(t *testing.T) {
	d, parts := workload(2)
	run := func(passes int) *train.Result {
		_, _, ctx := clusters.Test(2).Build(nil)
		prm := params()
		prm.MaxSteps = 3
		prm.LocalPasses = passes
		res, err := mavg.Train(ctx, parts, d.Features, prm, d.View(), d.Name)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, three := run(1), run(3)
	if three.Updates != 3*one.Updates {
		t.Errorf("updates with 3 passes = %d, want 3x %d", three.Updates, one.Updates)
	}
	if three.SimTime <= one.SimTime {
		t.Error("more local passes should cost more simulated time")
	}
}

func TestSameCommunicationPatternAsMLlib(t *testing.T) {
	// MLlib+MA keeps MLlib's communication: per-step driver traffic must be
	// essentially the same (model broadcast + model-sized aggregation).
	d := data.Generate(data.Spec{Name: "m", Rows: 200, Cols: 5000, NNZPerRow: 5, Seed: 2})
	parts := d.Partition(4, 3)
	prm := params()
	prm.MaxSteps = 4
	prm.Aggregators = 4
	prm.BatchFraction = 0.5

	_, clA, ctxA := clusters.Test(4).Build(nil)
	if _, err := mavg.Train(ctxA, parts, d.Features, prm, d.View(), d.Name); err != nil {
		t.Fatal(err)
	}
	_, clB, ctxB := clusters.Test(4).Build(nil)
	if _, err := mllib.Train(ctxB, parts, d.Features, prm, d.View(), d.Name); err != nil {
		t.Fatal(err)
	}
	ma := clA.Net.Node("driver").BytesSent() + clA.Net.Node("driver").BytesRecv()
	ml := clB.Net.Node("driver").BytesSent() + clB.Net.Node("driver").BytesRecv()
	ratio := ma / ml
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("driver traffic ratio MA/MLlib = %g, want ~1", ratio)
	}
}

func TestErrors(t *testing.T) {
	_, _, ctx := clusters.Test(2).Build(nil)
	if _, err := mavg.Train(ctx, make([]data.View, 3), 10, params(), data.View{}, "d"); err == nil {
		t.Error("want partition mismatch error")
	}
}
