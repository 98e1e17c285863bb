package core_test

import (
	"math"
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/train"
)

// maParams configures an MLlib+MA run on toyWorkload.
func maParams() train.Params {
	return train.Params{
		Objective: glm.SVM(0),
		Eta:       0.1,
		Decay:     true,
		MaxSteps:  20,
		Seed:      5,
	}
}

func TestManyUpdatesPerStep(t *testing.T) {
	d, parts := toyWorkload(4)
	_, _, ctx := clusters.Test(4).Build(nil)
	res, err := core.Train(core.MLlibMA, ctx, parts, d.Features, maParams(), d.View(), d.Name)
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
	d, parts := toyWorkload(4)
	steps := func(fn func() (*train.Result, error)) float64 {
		res, err := fn()
		if err != nil {
			t.Fatal(err)
		}
		return res.Curve.Best()
	}
	_, _, ctxA := clusters.Test(4).Build(nil)
	prm := maParams()
	prm.MaxSteps = 15
	maBest := steps(func() (*train.Result, error) {
		return core.Train(core.MLlibMA, ctxA, parts, d.Features, prm, d.View(), d.Name)
	})
	_, _, ctxB := clusters.Test(4).Build(nil)
	prmML := prm
	prmML.Eta = 0.5
	prmML.BatchFraction = 0.2
	mlBest := steps(func() (*train.Result, error) {
		return core.Train(core.MLlib, ctxB, parts, d.Features, prmML, d.View(), d.Name)
	})
	if maBest >= mlBest {
		t.Errorf("after 15 steps: MLlib+MA best %g not below MLlib best %g", maBest, mlBest)
	}
}

func TestLocalPassesMultiplier(t *testing.T) {
	d, parts := toyWorkload(2)
	run := func(passes int) *train.Result {
		_, _, ctx := clusters.Test(2).Build(nil)
		prm := maParams()
		prm.MaxSteps = 3
		prm.LocalPasses = passes
		res, err := core.Train(core.MLlibMA, ctx, parts, d.Features, prm, d.View(), d.Name)
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
	prm := maParams()
	prm.MaxSteps = 4
	prm.Aggregators = 4
	prm.BatchFraction = 0.5

	_, clA, ctxA := clusters.Test(4).Build(nil)
	if _, err := core.Train(core.MLlibMA, ctxA, parts, d.Features, prm, d.View(), d.Name); err != nil {
		t.Fatal(err)
	}
	_, clB, ctxB := clusters.Test(4).Build(nil)
	if _, err := core.Train(core.MLlib, ctxB, parts, d.Features, prm, d.View(), d.Name); err != nil {
		t.Fatal(err)
	}
	ma := clA.Net.Node("driver").BytesSent() + clA.Net.Node("driver").BytesRecv()
	ml := clB.Net.Node("driver").BytesSent() + clB.Net.Node("driver").BytesRecv()
	ratio := ma / ml
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("driver traffic ratio MA/MLlib = %g, want ~1", ratio)
	}
}

func TestSendModelErrors(t *testing.T) {
	_, _, ctx := clusters.Test(2).Build(nil)
	if _, err := core.Train(core.MLlibMA, ctx, make([]data.View, 3), 10, maParams(), data.View{}, "d"); err == nil {
		t.Error("want partition mismatch error")
	}
}

// TestSendModelIteratesIndependentOfAggregation runs SendModel over Tree
// (MLlib+MA) and over AllReduce (MLlib*) from the same zero model with the
// same local update: the averaged iterate must not depend on the
// aggregation path. Only the fold order differs — group sums then the
// driver's ·1/k, against the owners' Reduce-Scatter folds — so the final
// weights are bit-identical at k = 2 and within 1e-12 per coordinate beyond.
func TestSendModelIteratesIndependentOfAggregation(t *testing.T) {
	d, _ := smallWorkload(1)
	for _, k := range []int{2, 3, 4, 8} {
		parts := d.Partition(k, 3)
		for _, steps := range []int{1, 2, 5, 13, 30} {
			for _, l2 := range []float64{0, 0.01} {
				prm := baseParams()
				prm.Objective = glm.SVM(l2)
				prm.MaxSteps = steps
				final := map[string][]float64{}
				for _, system := range []string{core.MLlibMA, core.MLlibStar} {
					_, _, ctx := clusters.Test(k).Build(nil)
					res, err := core.Train(system, ctx, parts, d.Features, prm, d.View(), d.Name)
					if err != nil {
						t.Fatal(err)
					}
					final[system] = res.FinalW
				}
				tree, allReduce := final[core.MLlibMA], final[core.MLlibStar]
				for j := range tree {
					diff := math.Abs(tree[j] - allReduce[j])
					if k == 2 && math.Float64bits(tree[j]) != math.Float64bits(allReduce[j]) || diff > 1e-12 {
						t.Fatalf("k=%d steps=%d l2=%g: coordinate %d is %v over Tree, %v over AllReduce",
							k, steps, l2, j, tree[j], allReduce[j])
					}
				}
			}
		}
	}
}
