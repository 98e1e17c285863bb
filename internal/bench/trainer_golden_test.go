package bench

// Slab-kernel trainers ≡ the Example-view reference, at trainer level. Every
// configuration's model fingerprint, virtual clock, wire bytes, counters and
// convergence curve must equal its record in
// testdata/trainer_results.golden. That file was captured at the last commit
// that still had the Example-view gradient path, once through that path and
// once through the slab kernels (the two captures were byte-identical), so
// these tests hold the kernels to the reference's numbers — the virtual
// clock included, because a kernel returns exactly the nonzeros-touched work
// measure of the loop it replaced. Every configuration runs twice, with the
// offload pool off and forced on: the evaluator's deferred objective
// evaluation (train.Evaluator) and the offloaded kernels may not move a bit
// of a record either way. Regenerate (only when a change is meant to move
// numerics) with
//
//	go test ./internal/bench -run 'TestCSRKernelBitIdentity|TestEarlyStopGolden' -update

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/glm"
	"mllibstar/internal/lbfgs"
	"mllibstar/internal/train"
)

// requireGolden compares the result with the golden record of that name;
// under -update it replaces (or appends) the record instead.
func requireGolden(t *testing.T, name string, res *train.Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, x := range res.FinalW {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	got := fmt.Sprintf("== %s\nweights_fnv64a %016x\nsim_time_bits %016x\ntotal_bytes %v\ncomm_steps %d\nupdates %d\n%s",
		name, h.Sum64(), math.Float64bits(res.SimTime), res.TotalBytes, res.CommSteps, res.Updates, res.Curve.CSV(true))

	path := filepath.Join("testdata", "trainer_results.golden")
	file, readErr := os.ReadFile(path)
	if readErr != nil && !*updateObs {
		t.Fatalf("%v (run with -update to create it)", readErr)
	}
	// A record runs from its "== name" line to the next one (or EOF).
	start := strings.Index(string(file), "== "+name+"\n")
	end := len(file)
	if start < 0 {
		start = end
	} else if next := strings.Index(string(file[start+1:]), "\n== "); next >= 0 {
		end = start + 1 + next + 1
	}
	if *updateObs {
		out := string(file[:start]) + got + string(file[end:])
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := string(file[start:end]); got != want {
		t.Errorf("%s differs from its record in %s:\n--- got\n%s--- want\n%s", name, path, got, want)
	}
}

// bothPools runs body with the offload pool off, then forced on.
func bothPools(body func()) {
	runWithPar(false, body)
	runWithPar(true, body)
}

func goldenWorkload(t *testing.T) *workload {
	t.Helper()
	w, err := loadWorkload("avazu", RunConfig{Scale: 20000, EvalCap: 200})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCSRKernelBitIdentityTrainers(t *testing.T) {
	w := goldenWorkload(t)
	for _, tc := range []struct {
		system string
		l2     float64
	}{
		{sysMLlib, 0.1},
		{sysMLlib, 0}, // BatchFraction < 1: the sampled-rows kernel
		{sysMAvg, 0.1},
		{sysMLlibStar, 0.1},
		{sysMLlibStar, 0}, // plain-SGD kernel (None regularizer)
		{sysPetuumStar, 0.1},
		{sysPetuumStar, 0},
		{sysAngel, 0.1},
		{sysAngel, 0}, // the batch step's touched-set update (None regularizer)
	} {
		prm := tuned(tc.system, "avazu", tc.l2)
		prm.MaxSteps = 8
		bothPools(func() {
			res, err := runSystem(tc.system, clusters.Test(4), w, prm, nil)
			requireGolden(t, fmt.Sprintf("%s l2=%g", tc.system, tc.l2), res, err)
		})
	}
}

// TestEarlyStopGolden pins the step a stop target ends the run at — and the
// model, clock and bytes it ends with — for a parameter-server trainer
// (worker 0 raises the stop flag the other workers poll) and an engine
// trainer (the driver loop breaks). With a target the evaluator joins every
// evaluation inside Record, so the stop step is the one the inline
// evaluation gave.
func TestEarlyStopGolden(t *testing.T) {
	w := goldenWorkload(t)
	for _, tc := range []struct {
		system string
		target float64
	}{
		{sysPetuumStar, 0.45},
		{sysMLlibStar, 0.32},
	} {
		prm := tuned(tc.system, "avazu", 0)
		prm.MaxSteps = 8
		prm.TargetObjective = tc.target
		bothPools(func() {
			res, err := runSystem(tc.system, clusters.Test(4), w, prm, nil)
			requireGolden(t, fmt.Sprintf("%s l2=0 target=%g", tc.system, tc.target), res, err)
			if err == nil && (res.CommSteps >= prm.MaxSteps || res.Curve.Final().Objective > tc.target) {
				t.Errorf("%s: ran %d steps to objective %g: the target %g did not stop it",
					tc.system, res.CommSteps, res.Curve.Final().Objective, tc.target)
			}
		})
	}
}

// TestCSRKernelBitIdentitySquaredLoss covers the third built-in loss at
// trainer level: tuned() uses hinge and the SVRG/L-BFGS tests use logistic.
func TestCSRKernelBitIdentitySquaredLoss(t *testing.T) {
	w := goldenWorkload(t)
	for _, l2 := range []float64{0, 0.1} {
		prm := tuned(sysMLlibStar, "avazu", l2)
		prm.MaxSteps = 8
		prm.Objective.Loss = glm.Squared{}
		bothPools(func() {
			res, err := runSystem(sysMLlibStar, clusters.Test(4), w, prm, nil)
			requireGolden(t, fmt.Sprintf("%s squared l2=%g", sysMLlibStar, l2), res, err)
		})
	}
}

func TestCSRKernelBitIdentityLBFGS(t *testing.T) {
	w := goldenWorkload(t)
	for _, allReduce := range []bool{false, true} {
		name := "LBFGS-tree"
		if allReduce {
			name = "LBFGS-allreduce"
		}
		bothPools(func() {
			_, _, ctx := clusters.Test(4).Build(nil)
			res, err := lbfgs.TrainDistributed(ctx, w.ds.Partition(4, 3), w.ds.Features, lbfgs.DistConfig{
				Objective: glm.LogReg(0.01),
				MaxIters:  6,
				AllReduce: allReduce,
			}, w.eval, w.ds.Name)
			requireGolden(t, name, res, err)
		})
	}
}

func TestCSRKernelBitIdentitySVRG(t *testing.T) {
	w := goldenWorkload(t)
	prm := train.Params{Objective: glm.LogReg(0.01), Eta: 0.1, MaxSteps: 5, EvalEvery: 1, Seed: 7}
	bothPools(func() {
		_, _, ctx := clusters.Test(4).Build(nil)
		res, err := core.TrainSVRG(ctx, w.ds.Partition(4, 3), w.ds.Features, prm, w.eval, w.ds.Name)
		requireGolden(t, "MLlib*-SVRG", res, err)
	})
}
