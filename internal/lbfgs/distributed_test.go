package lbfgs_test

// The distributed L-BFGS variants (internal/core's LBFGS and LBFGS*)
// against the sequential Minimize and against each other.

import (
	"math"
	"strings"
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/lbfgs"
	"mllibstar/internal/train"
)

func workload(k int) (*data.Dataset, []data.View) {
	d := data.Generate(data.Spec{
		Name: "toy", Rows: 1200, Cols: 120, NNZPerRow: 8, Seed: 11, NoiseRate: 0.02,
	})
	return d, d.Partition(k, 3)
}

// params configures a run of 40 iterations; L-BFGS reads no learning rate.
func params() train.Params {
	return train.Params{Objective: glm.LogReg(0.01), MaxSteps: 40}
}

// system names the L-BFGS variant over the AllReduce or the tree.
func system(allReduce bool) string {
	if allReduce {
		return core.LBFGSStar
	}
	return core.LBFGS
}

func TestBothVariantsMatchSequentialOptimum(t *testing.T) {
	d, parts := workload(4)
	seq, err := lbfgs.Minimize(glm.LogReg(0.01), d.Examples, d.Features, 80, lbfgs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, allReduce := range []bool{false, true} {
		_, _, ctx := clusters.Test(4).Build(nil)
		res, err := core.Train(system(allReduce), ctx, parts, d.Features, params(), d.View(), d.Name)
		if err != nil {
			t.Fatal(err)
		}
		if gap := res.Curve.Best() - seq.Objective; gap > 0.01 {
			t.Errorf("allReduce=%v: best %g vs sequential %g (gap %g)",
				allReduce, res.Curve.Best(), seq.Objective, gap)
		}
	}
}

func TestVariantsComputeSameIterates(t *testing.T) {
	// Both communication patterns implement the same algorithm on the same
	// full-batch gradient: their final models must agree closely.
	d, parts := workload(4)
	finals := make([][]float64, 2)
	for i, allReduce := range []bool{false, true} {
		_, _, ctx := clusters.Test(4).Build(nil)
		prm := params()
		prm.MaxSteps = 15
		res, err := core.Train(system(allReduce), ctx, parts, d.Features, prm, d.View(), d.Name)
		if err != nil {
			t.Fatal(err)
		}
		finals[i] = res.FinalW
	}
	for j := range finals[0] {
		if math.Abs(finals[0][j]-finals[1][j]) > 1e-6*(1+math.Abs(finals[0][j])) {
			t.Fatalf("iterates diverge at coord %d: %g vs %g", j, finals[0][j], finals[1][j])
		}
	}
}

func TestAllReduceVariantMovesLessDriverTraffic(t *testing.T) {
	// The point of LBFGS*: no model bytes through the driver.
	d := data.Generate(data.Spec{Name: "wide", Rows: 600, Cols: 20000, NNZPerRow: 6, Seed: 2})
	parts := d.Partition(8, 3)
	driverBytes := func(allReduce bool) float64 {
		_, cl, ctx := clusters.Test(8).Build(nil)
		prm := params()
		prm.MaxSteps = 5
		if _, err := core.Train(system(allReduce), ctx, parts, d.Features, prm, d.View(), d.Name); err != nil {
			t.Fatal(err)
		}
		return cl.Net.Node("driver").BytesSent() + cl.Net.Node("driver").BytesRecv()
	}
	tree, ar := driverBytes(false), driverBytes(true)
	if ar > tree/10 {
		t.Errorf("driver traffic: allreduce %g vs tree %g — expected >10x reduction", ar, tree)
	}
}

func TestValidation(t *testing.T) {
	_, _, ctx := clusters.Test(2).Build(nil)
	prm := params()
	prm.Objective = glm.SVM(0)
	if _, err := core.Train(core.LBFGS, ctx, make([]data.View, 2), 10, prm, data.View{}, "d"); err == nil {
		t.Error("want error for hinge")
	}
	_, _, ctx2 := clusters.Test(2).Build(nil)
	prm2 := params()
	prm2.MaxSteps = 0
	if _, err := core.Train(core.LBFGS, ctx2, make([]data.View, 2), 10, prm2, data.View{}, "d"); err == nil {
		t.Error("want error for zero iters")
	}
	_, _, ctx3 := clusters.Test(3).Build(nil)
	if _, err := core.Train(core.LBFGS, ctx3, make([]data.View, 2), 10, params(), data.View{}, "d"); err == nil {
		t.Error("want error for partition mismatch")
	}
	_, _, ctx4 := clusters.Test(2).Build(nil)
	if _, err := core.Train(core.LBFGS, ctx4, make([]data.View, 2), 10, params(), data.View{}, "d"); err == nil {
		t.Error("want error for empty dataset")
	}
	// Stop criteria and cadence: non-finite or negative is an error naming
	// the field (a NaN target would otherwise never stop the run).
	for _, c := range []struct {
		field  string
		mutate func(*train.Params)
	}{
		{"TargetObjective", func(p *train.Params) { p.TargetObjective = math.NaN() }},
		{"TargetObjective", func(p *train.Params) { p.TargetObjective = -0.1 }},
		{"MaxSimTime", func(p *train.Params) { p.MaxSimTime = math.Inf(1) }},
		{"MaxSimTime", func(p *train.Params) { p.MaxSimTime = -1 }},
		{"EvalEvery", func(p *train.Params) { p.EvalEvery = -1 }},
	} {
		_, _, ctx := clusters.Test(2).Build(nil)
		prm := params()
		c.mutate(&prm)
		_, err := core.Train(core.LBFGS, ctx, make([]data.View, 2), 10, prm, data.View{}, "d")
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("want error naming %s, got %v", c.field, err)
		}
	}
}

func TestDeterministic(t *testing.T) {
	d, parts := workload(3)
	run := func() float64 {
		_, _, ctx := clusters.Test(3).Build(nil)
		prm := params()
		prm.MaxSteps = 8
		res, err := core.Train(system(true), ctx, parts, d.Features, prm, d.View(), d.Name)
		if err != nil {
			t.Fatal(err)
		}
		return res.SimTime
	}
	if a, b := run(), run(); a != b {
		t.Errorf("sim times differ: %g vs %g", a, b)
	}
}
