package lbfgs_test

import (
	"math"
	"strings"
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/lbfgs"
)

func workload(k int) (*data.Dataset, []data.View) {
	d := data.Generate(data.Spec{
		Name: "toy", Rows: 1200, Cols: 120, NNZPerRow: 8, Seed: 11, NoiseRate: 0.02,
	})
	return d, d.Partition(k, 3)
}

func distCfg(allReduce bool) lbfgs.DistConfig {
	return lbfgs.DistConfig{
		Objective: glm.LogReg(0.01),
		MaxIters:  40,
		AllReduce: allReduce,
	}
}

func TestBothVariantsMatchSequentialOptimum(t *testing.T) {
	d, parts := workload(4)
	seq, err := lbfgs.Minimize(glm.LogReg(0.01), d.Examples, d.Features, 80, lbfgs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, allReduce := range []bool{false, true} {
		_, _, ctx := clusters.Test(4).Build(nil)
		res, err := lbfgs.TrainDistributed(ctx, parts, d.Features, distCfg(allReduce), d.View(), d.Name)
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
		cfg := distCfg(allReduce)
		cfg.MaxIters = 15
		res, err := lbfgs.TrainDistributed(ctx, parts, d.Features, cfg, d.View(), d.Name)
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
		cfg := distCfg(allReduce)
		cfg.MaxIters = 5
		if _, err := lbfgs.TrainDistributed(ctx, parts, d.Features, cfg, d.View(), d.Name); err != nil {
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
	cfg := distCfg(false)
	cfg.Objective = glm.SVM(0)
	if _, err := lbfgs.TrainDistributed(ctx, make([]data.View, 2), 10, cfg, data.View{}, "d"); err == nil {
		t.Error("want error for hinge")
	}
	_, _, ctx2 := clusters.Test(2).Build(nil)
	cfg2 := distCfg(false)
	cfg2.MaxIters = 0
	if _, err := lbfgs.TrainDistributed(ctx2, make([]data.View, 2), 10, cfg2, data.View{}, "d"); err == nil {
		t.Error("want error for zero iters")
	}
	_, _, ctx3 := clusters.Test(3).Build(nil)
	if _, err := lbfgs.TrainDistributed(ctx3, make([]data.View, 2), 10, distCfg(false), data.View{}, "d"); err == nil {
		t.Error("want error for partition mismatch")
	}
	_, _, ctx4 := clusters.Test(2).Build(nil)
	if _, err := lbfgs.TrainDistributed(ctx4, make([]data.View, 2), 10, distCfg(false), data.View{}, "d"); err == nil {
		t.Error("want error for empty dataset")
	}
	// Stop criteria and cadence: non-finite or negative is an error naming
	// the field (a NaN target would otherwise never stop the run).
	for _, c := range []struct {
		field  string
		mutate func(*lbfgs.DistConfig)
	}{
		{"TargetObjective", func(c *lbfgs.DistConfig) { c.TargetObjective = math.NaN() }},
		{"TargetObjective", func(c *lbfgs.DistConfig) { c.TargetObjective = -0.1 }},
		{"MaxSimTime", func(c *lbfgs.DistConfig) { c.MaxSimTime = math.Inf(1) }},
		{"MaxSimTime", func(c *lbfgs.DistConfig) { c.MaxSimTime = -1 }},
		{"EvalEvery", func(c *lbfgs.DistConfig) { c.EvalEvery = -1 }},
	} {
		_, _, ctx := clusters.Test(2).Build(nil)
		cfg := distCfg(false)
		c.mutate(&cfg)
		_, err := lbfgs.TrainDistributed(ctx, make([]data.View, 2), 10, cfg, data.View{}, "d")
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("want error naming %s, got %v", c.field, err)
		}
	}
}

func TestDeterministic(t *testing.T) {
	d, parts := workload(3)
	run := func() float64 {
		_, _, ctx := clusters.Test(3).Build(nil)
		cfg := distCfg(true)
		cfg.MaxIters = 8
		res, err := lbfgs.TrainDistributed(ctx, parts, d.Features, cfg, d.View(), d.Name)
		if err != nil {
			t.Fatal(err)
		}
		return res.SimTime
	}
	if a, b := run(), run(); a != b {
		t.Errorf("sim times differ: %g vs %g", a, b)
	}
}
