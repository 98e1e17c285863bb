package mllib_test

import (
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/mllib"
	"mllibstar/internal/obs"
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
		Objective:     glm.SVM(0),
		Eta:           0.5,
		Decay:         true,
		BatchFraction: 0.2,
		MaxSteps:      30,
		Seed:          5,
	}
}

func TestAggregatorsDefaultIsSqrt(t *testing.T) {
	if got := mllib.Aggregators(train.Params{}, 8); got != 3 { // ceil(sqrt(8))
		t.Errorf("aggregators(8) = %d, want 3", got)
	}
	if got := mllib.Aggregators(train.Params{}, 1); got != 1 {
		t.Errorf("aggregators(1) = %d, want 1", got)
	}
	if got := mllib.Aggregators(train.Params{Aggregators: 5}, 8); got != 5 {
		t.Errorf("explicit aggregators = %d", got)
	}
}

func TestOneUpdatePerStep(t *testing.T) {
	d, parts := workload(4)
	_, _, ctx := clusters.Test(4).Build(nil)
	res, err := mllib.Train(ctx, parts, d.Features, params(), d.Examples, d.Name)
	if err != nil {
		t.Fatal(err)
	}
	// The SendGradient paradigm applies exactly one global update per
	// communication step — the paper's bottleneck B1.
	if res.Updates != int64(res.CommSteps) {
		t.Errorf("updates = %d, steps = %d: SendGradient must be 1:1", res.Updates, res.CommSteps)
	}
}

func TestObjectiveDecreases(t *testing.T) {
	d, parts := workload(4)
	_, _, ctx := clusters.Test(4).Build(nil)
	prm := params()
	prm.MaxSteps = 100
	res, err := mllib.Train(ctx, parts, d.Features, prm, d.Examples, d.Name)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Curve.Points[0].Objective
	if best := res.Curve.Best(); best >= first*0.9 {
		t.Errorf("objective barely moved: %g -> %g", first, best)
	}
}

func TestDriverIsBottleneck(t *testing.T) {
	// The hallmark of Figure 3(a): executors spend a large share of each
	// step waiting while the driver transmits/receives models. Quantify it
	// as the driver's send+recv busy time being a significant fraction of
	// the run on a communication-bound workload.
	d := data.Generate(data.Spec{Name: "wide", Rows: 400, Cols: 50000, NNZPerRow: 5, Seed: 2})
	parts := d.Partition(8, 3)
	sink := obs.NewSink()
	_, _, ctx := clusters.Test(8).Build(sink)
	prm := params()
	prm.MaxSteps = 3
	prm.Aggregators = 8 // flat: all gradients to the driver
	res, err := mllib.Train(ctx, parts, d.Features, prm, d.Examples, d.Name)
	if err != nil {
		t.Fatal(err)
	}
	bt := obs.GanttFromEvents(sink.Events()).BusyTime()
	driverComm := bt["driver"]["send"] + bt["driver"]["recv"]
	if share := driverComm / res.SimTime; share < 0.5 {
		t.Errorf("driver comm share = %.2f of the run; expected the driver to dominate", share)
	}
}

func TestTreeAggregationShiftsLoadFromDriver(t *testing.T) {
	d := data.Generate(data.Spec{Name: "wide", Rows: 400, Cols: 50000, NNZPerRow: 5, Seed: 2})
	parts := d.Partition(8, 3)
	driverRecv := func(aggs int) float64 {
		_, cl, ctx := clusters.Test(8).Build(nil)
		prm := params()
		prm.MaxSteps = 2
		prm.Aggregators = aggs
		if _, err := mllib.Train(ctx, parts, d.Features, prm, d.Examples, d.Name); err != nil {
			t.Fatal(err)
		}
		return cl.Net.Node("driver").BytesRecv()
	}
	flat, tree := driverRecv(8), driverRecv(3)
	if tree >= flat*0.6 {
		t.Errorf("treeAggregate driver recv %g vs flat %g: hierarchy not reducing driver load", tree, flat)
	}
}

func TestBatchFractionOne(t *testing.T) {
	// BatchFraction 0 defaults to full-batch gradient descent.
	d, parts := workload(2)
	_, _, ctx := clusters.Test(2).Build(nil)
	prm := params()
	prm.BatchFraction = 0
	prm.MaxSteps = 5
	res, err := mllib.Train(ctx, parts, d.Features, prm, d.Examples, d.Name)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommSteps != 5 {
		t.Errorf("steps = %d", res.CommSteps)
	}
}

func TestErrors(t *testing.T) {
	_, _, ctx := clusters.Test(2).Build(nil)
	if _, err := mllib.Train(ctx, make([]data.View, 3), 10, params(), nil, "d"); err == nil {
		t.Error("want partition mismatch error")
	}
	_, _, ctx2 := clusters.Test(2).Build(nil)
	bad := params()
	bad.MaxSteps = 0
	if _, err := mllib.Train(ctx2, make([]data.View, 2), 10, bad, nil, "d"); err == nil {
		t.Error("want validation error")
	}
}
