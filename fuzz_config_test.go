package mllibstar

import (
	"math"
	"testing"
)

// FuzzTrainConfig draws every Config field but Trace over a tiny dataset —
// NaN, ±Inf and negative values included, executors from [−2, 16], MaxSteps
// and EvalEvery from [−2, 20] — and holds Train to its contract: it returns
// an error, or a result whose final objective is finite, and never panics.
func FuzzTrainConfig(f *testing.F) {
	f.Add(uint8(2), uint8(0), 0.0, 0.1, false, 0.1, uint8(3), uint8(2), false, false, false, uint8(2), uint8(6), uint8(7), 0.0, 0.0, uint8(3), false, int64(1))
	f.Add(uint8(3), uint8(1), 0.01, 0.5, true, 0.2, uint8(2), uint8(4), false, false, false, uint8(1), uint8(4), uint8(5), 0.0, 0.0, uint8(2), true, int64(7))
	f.Add(uint8(6), uint8(1), 0.0, 1.0, false, 0.0, uint8(2), uint8(2), false, false, false, uint8(0), uint8(10), uint8(8), 0.0, 0.0, uint8(1), false, int64(3))
	f.Add(uint8(2), uint8(2), math.NaN(), math.Inf(-1), true, math.NaN(), uint8(0), uint8(0), true, true, true, uint8(2), uint8(0), uint8(0), math.NaN(), -1.0, uint8(0), false, int64(-5))
	f.Add(uint8(9), uint8(4), 0.0, 1e300, false, 1.0, uint8(5), uint8(9), false, true, false, uint8(1), uint8(18), uint8(22), 1e-9, 0.5, uint8(22), true, int64(0))
	ds := GenerateDataset("fuzz", 48, 12, 3, 1)
	eval := ds.Examples[:10]
	systems := append(Systems(), "", "nope")
	losses := []string{"hinge", "logistic", "squared", "", "nope"}
	// in maps a draw onto [lo, hi].
	in := func(u uint8, lo, hi int) int { return lo + int(u)%(hi-lo+1) }
	f.Fuzz(func(t *testing.T, system, loss uint8, l2, eta float64, decay bool, batch float64,
		localPasses, staleness uint8, reweight, adaGrad, torrent bool, cluster, executors, maxSteps uint8,
		maxSimTime, target float64, evalEvery uint8, evalData bool, seed int64) {
		cfg := Config{
			System: systems[int(system)%len(systems)], Loss: losses[int(loss)%len(losses)],
			L2: l2, Eta: eta, Decay: decay, BatchFraction: batch,
			LocalPasses: in(localPasses, -2, 4), Staleness: in(staleness, -2, 4),
			Reweight: reweight, AdaGrad: adaGrad, TorrentBroadcast: torrent,
			MaxSteps: in(maxSteps, -2, 20), MaxSimTime: maxSimTime, TargetObjective: target,
			EvalEvery: in(evalEvery, -2, 20), Seed: seed,
		}
		switch n := in(executors, -2, 16); cluster % 3 {
		case 1:
			cfg.Cluster = Cluster1(n)
		case 2:
			cfg.Cluster = Cluster2(n)
		}
		if evalData {
			cfg.EvalData = eval
		}
		res, err := Train(ds, cfg)
		if err != nil {
			return
		}
		if obj := res.Curve.Final().Objective; math.IsNaN(obj) || math.IsInf(obj, 0) {
			t.Fatalf("%+v: final objective %g", cfg, obj)
		}
	})
}
