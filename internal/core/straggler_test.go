package core_test

import (
	"math"
	"math/rand"
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/engine"
	"mllibstar/internal/glm"
	"mllibstar/internal/par"
	"mllibstar/internal/sparse"
	"mllibstar/internal/train"
)

// TestStragglersMoveTimeNeverBits runs every Spark-side system under seeded
// random straggler and speculation settings — StragglerFactor in [0, 20),
// StragglerProb 0 or in [0, 0.3), SpeculationQuantile in {0, 0.5, 0.75, 0.9}
// and a random StragglerSeed — and requires the final model bit for bit and
// the step count of the run without stragglers. Stragglers and speculative
// copies change when a task finishes, never what it computes. The Tree
// systems aggregate flat (Aggregators = k), so their tasks are speculatable,
// and at least one draw must have launched a speculative copy: a run whose
// executors completed more tasks than the undisturbed run's. The table runs
// with the sparse exchange off and then on, with the offload pool on at any
// CPU count: under `go test -race`, a losing speculative copy that reads a
// partial the driver has already recycled is a data race with the next
// stage's closures.
func TestStragglersMoveTimeNeverBits(t *testing.T) {
	par.ForceEnable(2)
	t.Cleanup(func() {
		par.Configure(true, 0)
		sparse.Configure(false)
	})
	const k, draws = 4, 8
	d, parts := smallWorkload(k)
	prm := train.Params{
		Objective:     glm.LogReg(0.01),
		Eta:           0.1,
		Decay:         true,
		BatchFraction: 0.1,
		MaxSteps:      6,
		Aggregators:   k,
		Seed:          5,
	}
	run := func(system string, cfg engine.Config) (*train.Result, int) {
		spec := clusters.Test(k)
		spec.Engine = cfg
		_, cl, ctx := spec.Build(nil)
		res, err := core.Train(system, ctx, parts, d.Features, prm, d.View(), d.Name)
		if err != nil {
			t.Fatalf("%s: %v", system, err)
		}
		tasks := 0
		for _, name := range cl.Execs {
			tasks += cl.Executor(name).TasksRun()
		}
		return res, tasks
	}

	rng := rand.New(rand.NewSource(49))
	speculated := 0
	for _, sparseOn := range []bool{false, true} {
		sparse.Configure(sparseOn)
		for _, system := range []string{core.MLlib, core.MLlibMA, core.MLlibStar, core.MLlibStarSVRG, core.LBFGS, core.LBFGSStar} {
			base := clusters.Test(k).Engine
			want, wantTasks := run(system, base)
			for draw := 0; draw < draws; draw++ {
				cfg := base
				cfg.StragglerFactor = 20 * rng.Float64()
				if rng.Intn(2) == 1 {
					cfg.StragglerProb = 0.3 * rng.Float64()
				}
				cfg.SpeculationQuantile = []float64{0, 0.5, 0.75, 0.9}[rng.Intn(4)]
				cfg.StragglerSeed = rng.Int63()
				got, tasks := run(system, cfg)
				if got.CommSteps != want.CommSteps {
					t.Fatalf("%s sparse=%v %+v: %d steps, want %d", system, sparseOn, cfg, got.CommSteps, want.CommSteps)
				}
				for j := range want.FinalW {
					if math.Float64bits(got.FinalW[j]) != math.Float64bits(want.FinalW[j]) {
						t.Fatalf("%s sparse=%v %+v: w[%d] = %v, want %v", system, sparseOn, cfg, j, got.FinalW[j], want.FinalW[j])
					}
				}
				if tasks > wantTasks {
					speculated++
				}
			}
		}
	}
	if speculated == 0 {
		t.Error("no draw launched a speculative copy")
	}
	t.Logf("%d draws launched speculative copies", speculated)
}
